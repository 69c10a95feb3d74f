"""Differential test of a cluster's pod column: Hypothesis drives a cluster
and helpers.ReferenceColumn, the per-pod column its runs and batches
replaced, through the same creates, deletions, placements, drains and forced
drains, and after every step compares the pods, the Pending ids, each node's
count of pods and every id sequence either returns.

The loads include batches of more than 10,000 pods, whose ids do not sort in
creation order ("…-10000" sorts before "…-2000"), and the ticks around
100,000, where "p100000" sorts before "p99999"."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from nodebalancer import ResourceVector, build_cluster, drain_node, place_pending, provision_node

from helpers import ReferenceColumn

NODES = 3
ticks = st.sampled_from((0, 1, 2, 3, 99_998, 99_999, 100_000, 100_001))
# Pods of (1m, 1Mi) on three 4000-pod nodes: small loads, and batches that
# cross 10,000 pods and do not all fit.
loads = st.one_of(st.integers(0, 40), st.integers(0, 40), st.integers(9_995, 10_012))


class ColumnMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = build_cluster("a", NODES, ResourceVector(4000, 4000), ResourceVector(1, 1))
        self.reference = ReferenceColumn(self.cluster)

    @rule(count=loads, tick=ticks)
    def load(self, count, tick):
        try:
            expected = self.reference.resize(count, tick)
        except ValueError:
            expected = ValueError
        try:
            got = self.cluster.resize(count, tick)
        except ValueError:
            got = ValueError
        assert got == expected

    @rule()
    def place(self):
        assert place_pending(self.cluster) == self.reference.place_pending()

    @precondition(lambda self: self.cluster.nodes)
    @rule(data=st.data(), force=st.booleans())
    def drain(self, data, force):
        if len(self.cluster.nodes) < 2:
            force = True  # only a forced drain may take the last node
        node_id = data.draw(st.sampled_from(sorted(self.cluster.nodes)))
        node = self.cluster.nodes[node_id]
        outcome = drain_node(self.cluster, node_id, force=force)
        relocated, restored, pending = self.reference.drain_node(node_id, force=force)
        assert (outcome.relocated, outcome.restored, outcome.pending) == (
            relocated, restored, pending)
        if not restored and data.draw(st.booleans()):
            provision_node(self.cluster, node)
            self.reference.provision(node)

    @invariant()
    def columns_agree(self):
        pods = self.cluster.pods  # derived on each read, so read once
        assert list(pods.items()) == list(self.reference.pods.items())
        assert {pod_id for pod_id, node_id in pods.items() if node_id is None} == (
            self.reference.pending)
        counts = self.cluster.counts()
        assert {nid: counts.get(nid, 0) for nid in self.cluster.nodes} == (
            self.reference.pod_count)
        runs = self.cluster.runs  # merged: no empty run, no two adjacent on one node
        assert all(length > 0 for length, _ in runs)
        assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))


ColumnMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None, derandomize=True, database=None
)
TestColumnMachine = ColumnMachine.TestCase
