"""Seeded scenario generators for the benchmark's three workloads.

Each recipe turns ``random.Random(seed)`` into a scenario document in the
package's JSON scenario format; the package only ever sees the written file.
The seed varies small phase offsets, base loads and amplitudes (each within
a narrow band), which cluster gets which node count and which member leaves
a group when, never the shape (clusters x nodes x ticks, pod quantum, trace
periods), so the cost of a run stays nearly the same from seed to seed and
run-to-run spread is mostly measurement noise rather than a different amount
of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NODE_CPU = 4000
NODE_MEMORY = 8192

# churn-static and rebalance-storm run 220 ticks, so one run yields 219 tick
# intervals and ten of them lie beyond their nearest-rank 95th percentile.
# wide-clusters runs half as many: its ticks are the slowest, and shorter
# runs give the run_s median more runs to steady it; a benchmark run pools
# the intervals of at least three runs (run.MIN_SAMPLES).
TICKS = 220

# Never used while the benchmark or a change is tuned; it is reserved for
# checking a claim made on the other seeds.
HELD_OUT_SEED = 1000003

# Sizes are set by the run budget at the commit that defined the benchmark,
# where deleting pods costs O(pods) per deletion: one run of each workload
# takes 1-3 s on a 2-CPU Xeon VM. Each workload still leaves every layer it
# targets a visible share once that quadratic loop is gone.
SHAPES = {
    "churn-static": {
        "clusters": 10,
        "nodes_per_cluster": [4, 5, 6],
        "ticks": TICKS,
        "pod_quantum": [100, 128],
        "base": [0.49, 0.51],
        "amplitude": [0.15, 0.17],
        "period": 12,
        "groups": 0,
        "why": "ten small clusters with fast Sine traces at the default quantum and "
        "no groups: every tick creates and deletes many pods, loading workload, "
        "scheduler.place_pending, the model scans and the audit, while rules, "
        "balancer, groups and the event log stay idle. It is the static half "
        "of compare and the bypass side for balancing and reporting changes.",
    },
    "rebalance-storm": {
        "clusters": 16,
        "nodes_per_cluster": [8],
        "ticks": TICKS,
        "pod_quantum": [2000, 4096],
        "base": [0.51, 0.53],
        "amplitude": [0.41, 0.43],
        "period": 16,
        "groups": 2,
        "thresholds": [0.45, 0.6],
        "balance_interval": 1,
        "rejoin_after": 3,
        "leave_gap": 3,
        "why": "groups of 8 out-of-phase members at a coarse pod quantum (two pods "
        "fill a node), balancing every tick, with a Remove/Add in every group every "
        "few ticks: most cycles drain and move a node, exits force-drain, and the "
        "event log is large. rules, balancer, scheduler.drain_node and groups "
        "together take more self time than workload; it is the bypass side for "
        "workload changes.",
    },
    "wide-clusters": {
        "clusters": 4,
        "nodes_per_cluster": [10],
        "ticks": TICKS // 2,
        "pod_quantum": [50, 64],
        "base": [0.545, 0.555],
        "amplitude": [0.295, 0.305],
        "period": 400,
        "groups": 2,
        "thresholds": [0.3, 0.8],
        "balance_interval": 5,
        "why": "a few clusters of ten nodes at a fine quantum, so each holds 400-700 "
        "pods (40-70 per node, against about 20 in churn-static and 2 in "
        "rebalance-storm), and two groups whose slow Sine traces balance only "
        "now and then: costs that grow with nodes x pods dominate (node demand "
        "scans, FFD placement, the audit).",
    },
}


def _resource(cpu: int, memory: int) -> dict:
    return {"cpu_millicores": cpu, "memory_mib": memory}


def _cluster(cid: str, nodes: int, trace: dict) -> dict:
    return {
        "id": cid,
        "node_count": nodes,
        "node_capacity": _resource(NODE_CPU, NODE_MEMORY),
        "trace": trace,
    }


def _sine(rng: random.Random, shape: dict, nodes: int, phase: int) -> dict:
    """A Sine trace whose base and amplitude are shares of the cluster's cpu."""
    capacity = nodes * NODE_CPU
    return {
        "kind": "Sine",
        "base": int(capacity * rng.uniform(*shape["base"])),
        "amplitude": int(capacity * rng.uniform(*shape["amplitude"])),
        "period": shape["period"],
        "phase": phase,
        "pod_quantum": _resource(*shape["pod_quantum"]),
    }


def _group(group_id: str, shape: dict, members: list[str]) -> dict:
    return {
        "id": group_id,
        "thresholds": dict(zip(("t_low", "t_high"), shape["thresholds"])),
        "balance_interval": shape["balance_interval"],
        "members": members,
    }


def _churn_static(rng: random.Random, shape: dict) -> dict:
    counts = [shape["nodes_per_cluster"][i % len(shape["nodes_per_cluster"])]
              for i in range(shape["clusters"])]
    rng.shuffle(counts)
    clusters = []
    for i, nodes in enumerate(counts):
        # Phases are spread evenly over the period, as in the other recipes:
        # with random phases, how many clusters shed pods in the same tick,
        # and so the slow ticks, would depend on the seed.
        phase = (i * shape["period"]) // shape["clusters"] + rng.randrange(2)
        clusters.append(_cluster(f"c{i:02d}", nodes, _sine(rng, shape, nodes, phase)))
    return {"clusters": clusters, "ticks": shape["ticks"]}


def _rebalance_storm(rng: random.Random, shape: dict) -> dict:
    nodes = shape["nodes_per_cluster"][0]
    members_per_group = shape["clusters"] // shape["groups"]
    clusters, groups, changes = [], [], []
    period = shape["period"]
    for g in range(shape["groups"]):
        members = []
        for m in range(members_per_group):
            cid = f"g{g}c{m}"
            members.append(cid)
            # Members are spread evenly over one period, so at any tick some
            # are near their peak while others are near their trough.
            phase = (m * period) // members_per_group + rng.randrange(2)
            clusters.append(_cluster(cid, nodes, _sine(rng, shape, nodes, phase)))
        group_id = f"g{g}"
        groups.append(_group(group_id, shape, members))
        # Every few ticks a random member leaves and rejoins a few ticks
        # later, so restoration (force-drains of borrowed and lent nodes)
        # recurs; the rhythm is fixed so every seed has as many exits.
        tick = 10 + g * 3
        while tick + shape["rejoin_after"] < shape["ticks"]:
            leaver = rng.choice(members)
            back = tick + shape["rejoin_after"]
            changes.append({"tick": tick, "action": "Remove", "cluster": leaver, "group": group_id})
            changes.append({"tick": back, "action": "Add", "cluster": leaver, "group": group_id})
            tick = back + shape["leave_gap"]
    changes.sort(key=lambda c: c["tick"])
    return {"clusters": clusters, "groups": groups, "membership_changes": changes,
            "ticks": shape["ticks"]}


def _wide_clusters(rng: random.Random, shape: dict) -> dict:
    nodes = shape["nodes_per_cluster"][0]
    clusters, groups = [], []
    per_group = shape["clusters"] // shape["groups"]
    period = shape["period"]
    for g in range(shape["groups"]):
        members = []
        for m in range(per_group):
            cid = f"w{g}c{m}"
            members.append(cid)
            phase = (m * period) // per_group + rng.randrange(5)
            clusters.append(_cluster(cid, nodes, _sine(rng, shape, nodes, phase)))
        groups.append(_group(f"w{g}", shape, members))
    return {"clusters": clusters, "groups": groups, "ticks": shape["ticks"]}


RECIPES = {
    "churn-static": _churn_static,
    "rebalance-storm": _rebalance_storm,
    "wide-clusters": _wide_clusters,
}


def generate(workload: str, seed: int, shape: dict | None = None) -> dict:
    """The scenario document for (workload, seed); shape defaults to SHAPES."""
    rng = random.Random(seed)
    doc = RECIPES[workload](rng, shape or SHAPES[workload])
    doc["seed"] = seed
    return doc


def write_scenario(workload: str, seed: int, path: Path, shape: dict | None = None) -> Path:
    path.write_text(json.dumps(generate(workload, seed, shape), indent=1) + "\n", encoding="utf-8")
    return path
