"""Stateful model test of GroupManager: Hypothesis drives random sequences of
joins, exits, load changes and balancing cycles, checks the paper's
guarantees after every step, and shrinks any failure to a minimal sequence."""

from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from nodebalancer import (
    ConstantTrace,
    EventKind,
    EventRecorder,
    GroupManager,
    ResourceVector,
    Thresholds,
    apply_workload,
    build_cluster,
    place_pending,
    rebalance_cycle,
)
from nodebalancer.errors import AlreadyGrouped

from helpers import assert_load_matches_pods

CLUSTERS = ("c0", "c1", "c2", "c3")
# In g1 a 2-node donor just below t_low lands above t_high on one node, so
# balancing there must reverse moves.
GROUPS = {"g0": Thresholds(0.3, 0.8), "g1": Thresholds(0.4, 0.7)}
CAPACITY = ResourceVector(4000, 8192)

cluster_ids = st.sampled_from(CLUSTERS)
group_ids = st.sampled_from(sorted(GROUPS))
# Counts of 100m pods: from idle to more than a cluster's capacity.
pod_counts = st.sampled_from((0, 10, 30, 70, 110))


class GroupManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.recorder = EventRecorder()
        self.manager = GroupManager(recorder=self.recorder)
        for index, cid in enumerate(CLUSTERS):
            self.manager.register_cluster(build_cluster(cid, 2 + index % 2, CAPACITY))
        for gid, thresholds in GROUPS.items():
            self.manager.create_group(gid, thresholds)
        for index, cid in enumerate(CLUSTERS):
            self.manager.add_cluster(f"g{index // 2}", cid)
        self.nodes = {
            nid: node for cluster in self.manager.clusters.values()
            for nid, node in cluster.nodes.items()
        }
        self.tick = 0

    def holder(self, cid):
        """The id of the group whose members list the cluster, or None."""
        groups = self.manager.groups.values()
        return next((group.id for group in groups if cid in group.members), None)

    @initialize(counts=st.tuples(*[pod_counts] * len(CLUSTERS)))
    def load_every_cluster(self, counts):
        for cid, pods in zip(CLUSTERS, counts):
            self.set_load(cid, pods)

    @rule(group=group_ids, cid=cluster_ids)
    def add_cluster(self, group, cid):
        holder = self.holder(cid)
        if holder is None:
            self.manager.add_cluster(group, cid)
        else:
            with pytest.raises(AlreadyGrouped) as info:
                self.manager.add_cluster(group, cid)
            assert info.value.group_id == holder

    @precondition(lambda self: any(group.members for group in self.manager.groups.values()))
    @rule(data=st.data())
    def remove_cluster(self, data):
        grouped = sorted(m for group in self.manager.groups.values() for m in group.members)
        cid = data.draw(st.sampled_from(grouped))
        leaver = self.manager.clusters[cid]
        self.manager.remove_cluster(self.holder(cid), cid)
        assert set(leaver.nodes) == set(leaver.original_node_ids)
        for other in self.manager.clusters.values():
            if other is not leaver:
                assert all(node.origin_cluster != cid for node in other.nodes.values())

    @rule(cid=cluster_ids, pods=pod_counts)
    def set_load(self, cid, pods):
        # Pod ids are unique only per (cluster, tick), so each load takes a fresh tick.
        cluster = self.manager.clusters[cid]
        apply_workload(cluster, ConstantTrace(level=pods * 100), self.tick)
        place_pending(cluster)
        self.tick += 1

    @rule()
    def rebalance(self):
        self.recorder.tick = self.tick
        for group in self.manager.groups.values():
            rebalance_cycle(group, self.manager.clusters, recorder=self.recorder)
        for cluster in self.manager.clusters.values():
            place_pending(cluster)
        self.tick += 1

    @invariant()
    def nodes_are_conserved(self):
        seen = Counter(
            nid for cluster in self.manager.clusters.values() for nid in cluster.nodes
        )
        assert seen == Counter(self.nodes.keys())
        # Every hosted node is one of the original node objects, under its own id.
        for cluster in self.manager.clusters.values():
            assert all(self.nodes[nid] is node for nid, node in cluster.nodes.items())

    @invariant()
    def membership_is_exclusive(self):
        owners = Counter(m for group in self.manager.groups.values() for m in group.members)
        assert all(count == 1 for count in owners.values())
        assert owners.keys() <= self.manager.clusters.keys()

    @invariant()
    def clusters_keep_enough_nodes_of_their_own(self):
        # Any exit may recall a borrowed node, so only own nodes are safe.
        for cid, cluster in self.manager.clusters.items():
            assert any(node.origin_cluster == cid for node in cluster.nodes.values())

    @invariant()
    def ledgers_match_the_pods(self):
        # Forced drains, recalls and returns here never reach the engine's audit.
        for cluster in self.manager.clusters.values():
            assert_load_matches_pods(cluster)

    @invariant()
    def moves_leave_donors_at_or_below_t_high(self):
        for event in self.recorder.events:
            if event.kind == EventKind.MOVE_COMPLETED.value:
                assert event.detail["donor_utilization_after"] <= GROUPS[event.group].t_high


GroupManagerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True, database=None
)
TestGroupManagerMachine = GroupManagerMachine.TestCase
