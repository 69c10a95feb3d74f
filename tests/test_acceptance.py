"""End-to-end acceptance checks for the balancing simulator.

One test per shipped guarantee, each printing a single pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see them all.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from nodebalancer import (
    EventKind,
    EventRecorder,
    Group,
    OutcomeKind,
    Thresholds,
    cluster_utilization,
    compare,
    drain_node,
    parse_scenario,
    rebalance_cycle,
    run,
)
from nodebalancer.cli import main as cli_main
from nodebalancer.errors import LastNodeGuard
from nodebalancer.model import node_demand

from helpers import (
    fill,
    make_cluster,
    random_scenario,
    random_world,
    randomize_load,
    snapshot,
)

TOLERANCE = 1e-9


def _verdict(number, note, problems):
    status = "FAIL" if problems else "PASS"
    line = f"[criterion {number}] {status}: {note}"
    if problems:
        line += f" ({problems[0]})"
    print(line)
    assert not problems, f"criterion {number}: {problems[0]}"


@pytest.fixture(scope="module")
def sweep():
    """1000 randomized desk-scale runs, audited for node conservation.

    Each run's observer recomputes the global node-id multiset every tick
    and logs any tick where it deviates from the scenario's initial set.
    """
    rng = random.Random(20260816)
    results = []
    for _ in range(1000):
        scenario = parse_scenario(random_scenario(rng))
        expected = Counter(
            f"{spec.id}-n{i:03d}"
            for spec in scenario.clusters
            for i in range(spec.node_count)
        )
        deviations = []

        def watch(tick, clusters, expected=expected, deviations=deviations):
            seen = Counter()
            for cluster in clusters.values():
                seen.update(cluster.nodes.keys())
            if seen != expected:
                deviations.append(tick)

        artifacts = run(scenario, observer=watch)
        results.append((scenario, artifacts, deviations))
    return results


def test_criterion_1_node_conservation(sweep):
    problems = []
    ticks_audited = 0
    for index, (scenario, _, deviations) in enumerate(sweep):
        ticks_audited += scenario.ticks
        if deviations:
            problems.append(
                f"run {index} (seed {scenario.seed}): multiset deviated at tick {deviations[0]}"
            )
            break
    _verdict(
        1,
        f"node-id multiset invariant across {len(sweep)} runs, {ticks_audited} ticks audited",
        problems,
    )


def test_criterion_2_move_scenario():
    doc = {
        "clusters": [
            {
                "id": "a",
                "node_count": 2,
                "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
                "trace": {"kind": "Constant", "level": 7500},
            },
            {
                "id": "b",
                "node_count": 3,
                "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
                "trace": {"kind": "Constant", "level": 2000},
            },
        ],
        "groups": [
            {
                "id": "g",
                "thresholds": {"t_low": 0.3, "t_high": 0.8},
                "balance_interval": 1,
                "members": ["a", "b"],
            }
        ],
        "ticks": 3,
        "seed": 7,
    }
    artifacts = run(parse_scenario(doc))
    moves = [e for e in artifacts.events if e.kind == EventKind.MOVE_COMPLETED.value]
    by_key = {(r.tick, r.cluster_id): r for r in artifacts.tick_records}
    u_a = by_key[(0, "a")].u
    u_b = by_key[(0, "b")].u

    problems = []
    if len(moves) != 1:
        problems.append(f"expected exactly one move, saw {len(moves)}")
    elif moves[0].tick != 0:
        problems.append(f"move happened at tick {moves[0].tick}, not 0")
    if abs(u_a - 0.625) > TOLERANCE:
        problems.append(f"u(a) = {u_a!r}, expected 0.625")
    if abs(u_b - 0.25) > TOLERANCE:
        problems.append(f"u(b) = {u_b!r}, expected 0.25")
    counts = (by_key[(0, "a")].active_nodes, by_key[(0, "b")].active_nodes)
    if counts != (3, 2):
        problems.append(f"node counts {counts}, expected (3, 2)")
    _verdict(2, f"one move at tick 0; u=({u_a:.6f}, {u_b:.6f}); nodes {counts}", problems)


def test_criterion_3_reversal_scenario():
    # Donor at 7000m over 3x4000m: losing any node leaves 7000/8000 = 0.875,
    # above t_high 0.85, so the cycle must put the node back.
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    fill(hot, "a-n001", 3500)
    donor = make_cluster("b", [4000, 4000, 4000])
    fill(donor, "b-n000", 3500)
    fill(donor, "b-n001", 3500)
    clusters = {"a": hot, "b": donor}
    group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.6, 0.85))

    donor_nodes_before = sorted(donor.nodes)
    donor_objects_before = dict(donor.nodes)
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)

    problems = []
    reversals = [e for e in recorder.events if e.kind == EventKind.MOVE_REVERSED.value]
    if [o.kind for o in outcomes][:1] != [OutcomeKind.REVERSED] or len(reversals) != 1:
        problems.append(f"expected one reversal, outcomes {[o.kind for o in outcomes]}")
    else:
        detail = reversals[0].detail
        if detail["reason"] != "WouldExceedTHigh":
            problems.append(f"reason {detail['reason']!r}")
        if abs(detail["utilization_after"] - 0.875) > TOLERANCE:
            problems.append(f"recorded utilization_after {detail['utilization_after']!r}")
    if sorted(donor.nodes) != donor_nodes_before:
        problems.append(f"donor nodes changed: {sorted(donor.nodes)}")
    for reversal in reversals:
        node = donor_objects_before[reversal.node]
        if donor.nodes.get(reversal.node) is not node or node.origin_cluster != "b":
            problems.append(f"reversed node {reversal.node!r} is not back in the donor as it was")
    _verdict(3, "reversal recorded 0.875 and left the donor bit-identical", problems)


def test_criterion_4_candidate_iteration():
    # Two leanest donors would overshoot t_high after losing a node; the
    # third, despite higher current utilization, can afford the donation.
    hot = make_cluster("r", [4000, 4000])
    fill(hot, "r-n000", 4000)
    fill(hot, "r-n001", 3500)
    c1 = make_cluster("c1", [4000, 4000])
    fill(c1, "c1-n000", 3600)  # u 0.45 -> 0.9 without the idle node
    c2 = make_cluster("c2", [4000, 4000])
    fill(c2, "c2-n000", 3700)  # u 0.4625 -> 0.925
    c3 = make_cluster("c3", [4000] * 6)
    for i in range(5):
        fill(c3, f"c3-n{i:03d}", 2400)  # u 0.5 -> 0.6
    clusters = {"r": hot, "c1": c1, "c2": c2, "c3": c3}
    group = Group(id="g", members=["r", "c1", "c2", "c3"], thresholds=Thresholds(0.55, 0.85))

    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)
    completed = [e for e in recorder.events if e.kind == EventKind.MOVE_COMPLETED.value]
    moved = [o for o in outcomes if o.kind is OutcomeKind.MOVED]

    problems = []
    if len(completed) != 1 or completed[0].detail["from_cluster"] != "c3":
        problems.append(f"move came from {completed and completed[0].detail}")
    if not moved or moved[0].attempts != (
        ("c1", "WouldExceedTHigh"),
        ("c2", "WouldExceedTHigh"),
    ):
        problems.append(f"attempts {moved and moved[0].attempts}")
    _verdict(4, "third candidate donated; two WouldExceedTHigh attempts in u-order", problems)


def test_criterion_5_restoration_exactness():
    rng = random.Random(5005)
    problems = []
    trials = 500
    for trial in range(trials):
        manager, group = random_world(rng)
        for tick in range(rng.randint(0, 20)):
            for cluster in manager.clusters.values():
                randomize_load(rng, cluster, tick)
            rebalance_cycle(group, manager.clusters)
        victim = rng.choice(sorted(manager.clusters))
        manager.remove_cluster("g0", victim)
        cluster = manager.clusters[victim]
        if set(cluster.nodes) != set(cluster.original_node_ids):
            problems.append(
                f"trial {trial}: {victim} ended with {sorted(cluster.nodes)}"
            )
            break
        stragglers = [
            node.id
            for other_id, other in manager.clusters.items()
            if other_id != victim
            for node in other.nodes.values()
            if node.origin_cluster == victim
        ]
        if stragglers:
            problems.append(f"trial {trial}: {victim} left {stragglers} behind")
            break
    _verdict(5, f"{trials} random exits restored the exact original node set", problems)


def test_criterion_6_drain_atomicity():
    rng = random.Random(606)
    problems = []
    restored_count = completed_count = 0
    for trial in range(400):
        manager, _ = random_world(rng)
        cluster = manager.clusters[rng.choice(sorted(manager.clusters))]
        randomize_load(rng, cluster, 0)
        node_id = rng.choice(sorted(cluster.nodes))
        before = snapshot(cluster)
        try:
            outcome = drain_node(cluster, node_id)
        except LastNodeGuard:
            continue
        if outcome.restored:
            restored_count += 1
            if cluster != before:
                problems.append(f"trial {trial}: aborted drain mutated the cluster")
                break
        else:
            completed_count += 1
            if node_id in cluster.pods.values():
                problems.append(f"trial {trial}: pods still reference {node_id}")
                break
            overfull = [
                node.id
                for node in cluster.nodes.values()
                if (demand := node_demand(cluster, node.id)).cpu > node.capacity.cpu
                or demand.memory > node.capacity.memory
            ]
            if overfull:
                problems.append(f"trial {trial}: capacity exceeded on {overfull}")
                break
            running_before = {pid for pid, nid in before.pods.items() if nid is not None}
            running_after = {pid for pid, nid in cluster.pods.items() if nid is not None}
            if running_before != running_after:
                problems.append(f"trial {trial}: running-pod set changed")
                break
    if not problems and (restored_count == 0 or completed_count == 0):
        problems.append(
            f"both branches must occur; restored={restored_count} completed={completed_count}"
        )
    _verdict(
        6,
        f"{completed_count} completed and {restored_count} aborted drains held their contracts",
        problems,
    )


SPIKE_DOC = {
    "clusters": [
        {
            "id": "east",
            "node_count": 3,
            "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
            "trace": {"kind": "Spike", "base": 2000, "peak": 16000, "start": 10, "duration": 10},
        },
        {
            "id": "west",
            "node_count": 3,
            "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
            "trace": {"kind": "Spike", "base": 2000, "peak": 16000, "start": 40, "duration": 10},
        },
    ],
    "groups": [
        {
            "id": "g",
            "thresholds": {"t_low": 0.3, "t_high": 0.8},
            "balance_interval": 1,
            "members": ["east", "west"],
        }
    ],
    "ticks": 70,
    "seed": 2026,
}


def test_criterion_7_byte_identical_artifacts(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SPIKE_DOC), encoding="utf-8")
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == 0
        digests.append(
            {
                artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                for artifact in ("events.jsonl", "metrics.csv", "summary.json")
            }
        )
    problems = []
    for artifact in digests[0]:
        if digests[0][artifact] != digests[1][artifact]:
            problems.append(f"{artifact} hashes differ")
    _verdict(7, "repeated runs hash identically across all three artifacts", problems)


def test_criterion_8_pooling_beats_static_capacity():
    # Anti-phase spikes: each cluster's 16000m peak exceeds its own 12000m,
    # but the pooled 24000m covers base + peak with room to spare.
    scenario = parse_scenario(SPIKE_DOC)
    report = compare(scenario)
    balanced = report.balanced.summary["totals"]["pending_pod_ticks"]
    static = report.static.summary["totals"]["pending_pod_ticks"]

    problems = []
    if static <= 0:
        problems.append(f"static baseline shows no contention ({static})")
    if balanced >= static:
        problems.append(f"balanced {balanced} not below static {static}")
    rerun = compare(scenario)
    if rerun.balanced.summary != report.balanced.summary:
        problems.append("balanced summary changed between identical compare calls")
    _verdict(8, f"pending pod-ticks: balanced={balanced} vs static={static}", problems)


def test_criterion_9_donors_never_pushed_past_t_high(sweep):
    problems = []
    moves_checked = 0
    for index, (scenario, artifacts, _) in enumerate(sweep):
        t_high = {g.id: g.thresholds.t_high for g in scenario.groups}
        for event in artifacts.events:
            if event.kind != EventKind.MOVE_COMPLETED.value:
                continue
            moves_checked += 1
            after = event.detail["donor_utilization_after"]
            if after > t_high[event.group]:
                problems.append(
                    f"run {index}: donor left at {after} > t_high {t_high[event.group]}"
                )
                break
        if problems:
            break
    if not problems and moves_checked == 0:
        problems.append("sweep produced no moves; property never exercised")
    _verdict(9, f"all {moves_checked} recorded moves left donors at or below t_high", problems)
