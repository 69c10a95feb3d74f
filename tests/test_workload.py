import math
import random

import pytest

from nodebalancer import (
    DEFAULT_POD_QUANTUM as Q,
    ConstantTrace,
    ResourceVector,
    SineTrace,
    SpikeTrace,
    StepTrace,
    apply_workload,
    place_pending,
    target_demand,
)

from helpers import assert_load_matches_pods, make_cluster, run_pod, snapshot


def test_constant_trace():
    trace = ConstantTrace(level=2500)
    assert target_demand(trace, 0, Q) == ResourceVector(2500, 3200)
    assert target_demand(trace, 99, Q) == ResourceVector(2500, 3200)


def test_quantization_rounds_half_up():
    assert target_demand(ConstantTrace(level=250), 0, Q).cpu == 300  # 2.5 -> 3 pods
    assert target_demand(ConstantTrace(level=249), 0, Q).cpu == 200  # 2.49 -> 2
    assert target_demand(ConstantTrace(level=251), 0, Q).cpu == 300
    assert target_demand(ConstantTrace(level=0), 0, Q) == ResourceVector(0, 0)
    assert target_demand(ConstantTrace(level=49), 0, Q).cpu == 0
    assert target_demand(ConstantTrace(level=50), 0, Q).cpu == 100


def test_custom_quantum():
    quantum = ResourceVector(200, 256)
    assert target_demand(ConstantTrace(level=500), 0, quantum) == ResourceVector(600, 768)  # 2.5 -> 3


def test_negative_tick_rejected():
    with pytest.raises(ValueError):
        target_demand(ConstantTrace(level=100), -1, Q)


def test_step_trace_switches_levels():
    trace = StepTrace(steps=((0, 1000), (10, 3000), (20, 500)))
    assert target_demand(trace, 0, Q).cpu == 1000
    assert target_demand(trace, 9, Q).cpu == 1000
    assert target_demand(trace, 10, Q).cpu == 3000
    assert target_demand(trace, 19, Q).cpu == 3000
    assert target_demand(trace, 20, Q).cpu == 500
    assert target_demand(trace, 100, Q).cpu == 500


def test_step_trace_validation():
    with pytest.raises(ValueError):
        StepTrace(steps=())
    with pytest.raises(ValueError):
        StepTrace(steps=((5, 100),))  # must start at tick 0
    with pytest.raises(ValueError):
        StepTrace(steps=((0, 100), (10, 200), (10, 300)))


def test_sine_trace_follows_the_curve():
    trace = SineTrace(base=4000, amplitude=2000, period=100)
    assert target_demand(trace, 0, Q).cpu == 4000
    assert target_demand(trace, 25, Q).cpu == 6000  # crest
    assert target_demand(trace, 75, Q).cpu == 2000  # trough
    # Independent recomputation at an arbitrary tick.
    raw = 4000 + 2000 * math.sin(2 * math.pi * 13 / 100)
    assert target_demand(trace, 13, Q).cpu == int(math.floor(raw / 100 + 0.5)) * 100


def test_sine_phase_shifts_the_curve():
    base = SineTrace(base=4000, amplitude=2000, period=100)
    shifted = SineTrace(base=4000, amplitude=2000, period=100, phase=25)
    assert target_demand(shifted, 0, Q) == target_demand(base, 25, Q)


def test_sine_clamps_at_zero():
    trace = SineTrace(base=1000, amplitude=3000, period=4)
    assert target_demand(trace, 3, Q).cpu == 0  # raw is -2000


def test_spike_trace_boundaries():
    trace = SpikeTrace(base=2000, peak=16000, start=50, duration=10)
    assert target_demand(trace, 49, Q).cpu == 2000
    assert target_demand(trace, 50, Q).cpu == 16000
    assert target_demand(trace, 59, Q).cpu == 16000
    assert target_demand(trace, 60, Q).cpu == 2000


def test_apply_workload_creates_pending_pods():
    cluster = make_cluster("a", [4000])
    delta = apply_workload(cluster, ConstantTrace(level=1000), tick=0)
    assert len(delta.created) == 10
    assert delta.deleted == ()
    assert all(cluster.pods[p] is None for p in delta.created)
    assert cluster.pending == set(delta.created)
    assert cluster.quantum == ResourceVector(100, 128)


def test_apply_workload_steady_state_is_quiet():
    cluster = make_cluster("a", [4000])
    apply_workload(cluster, ConstantTrace(level=1000), tick=0)
    place_pending(cluster)
    before = snapshot(cluster)
    delta = apply_workload(cluster, ConstantTrace(level=1000), tick=1)
    assert delta.created == () and delta.deleted == ()
    assert cluster == before


def test_scale_down_rounds_toward_fewer_deletions():
    # Five 100m pods and a target of 250m: delete two, keep 300m.
    cluster = make_cluster("a", [4000])
    for i in range(5):
        run_pod(cluster, "a-n000")
    delta = apply_workload(cluster, ConstantTrace(level=250), tick=5)
    assert delta.deleted == ("a-p00004-0000", "a-p00003-0000")  # newest first
    assert delta.created == ()
    remaining = 100 * len(cluster.pods)
    assert remaining == 300
    assert abs(remaining - 250) < 100


def test_scale_down_deletes_newest_first():
    cluster = make_cluster("a", [4000])
    apply_workload(cluster, ConstantTrace(level=500), tick=0)
    apply_workload(cluster, ConstantTrace(level=800), tick=1)
    delta = apply_workload(cluster, ConstantTrace(level=600), tick=2)
    # The tick-1 pods are the newest; only they should be deleted.
    assert all("-p00001-" in pod_id for pod_id in delta.deleted)
    assert len(delta.deleted) == 2


def test_scale_down_deletes_newest_first_across_a_tick_id_width_change():
    # Tick 100000 widens the pod id, so "a-p99999-0000" sorts above the newer
    # "a-p100000-0000"; insertion order still names the newest.
    cluster = make_cluster("a", [4000])
    trace = StepTrace(steps=((0, 100), (100_000, 200), (100_001, 100)))
    apply_workload(cluster, trace, tick=99_999)
    assert apply_workload(cluster, trace, tick=100_000).created == ("a-p100000-0000",)
    delta = apply_workload(cluster, trace, tick=100_001)
    assert delta.deleted == ("a-p100000-0000",)
    assert list(cluster.pods) == ["a-p99999-0000"]


def test_scale_down_deletes_newest_first_across_a_pod_id_width_change():
    # The 10001st pod of a tick widens its id, so "-9999" sorts above "-10000".
    cluster = make_cluster("a", [4000])
    apply_workload(cluster, ConstantTrace(level=10_001 * 100), tick=0)
    delta = apply_workload(cluster, ConstantTrace(level=10_000 * 100), tick=1)
    assert delta.deleted == ("a-p00000-10000",)
    assert "a-p00000-9999" in cluster.pods


def test_tracking_error_stays_below_one_quantum():
    rng = random.Random(1313)
    for quantum in (ResourceVector(100, 128), ResourceVector(200, 256)):
        cluster = make_cluster("a", [4000, 4000], quantum=(quantum.cpu, quantum.memory))
        for tick in range(60):
            level = rng.randrange(0, 9000)
            trace = ConstantTrace(level=level)
            apply_workload(cluster, trace, tick)
            target = target_demand(trace, tick, quantum)
            actual = quantum.cpu * len(cluster.pods)
            assert abs(actual - target.cpu) < quantum.cpu
            if rng.random() < 0.5:
                place_pending(cluster)  # mixing running and pending changes nothing


HALF_QUANTUM_TRACES = [
    (ConstantTrace(level=250), Q),
    (ConstantTrace(level=500), ResourceVector(200, 256)),
    (StepTrace(steps=((0, 150), (2, 250), (4, 50), (6, 0), (8, 1050))), Q),
    (SineTrace(base=250, amplitude=100, period=4), Q),
    (SineTrace(base=50, amplitude=300, period=7, phase=3), Q),
    (SpikeTrace(base=50, peak=350, start=3, duration=4), Q),
]


@pytest.mark.parametrize("trace, quantum", HALF_QUANTUM_TRACES,
                         ids=[trace.kind for trace, _ in HALF_QUANTUM_TRACES])
def test_apply_workload_reaches_the_target_demand_exactly(trace, quantum):
    # Levels sit on half quanta, where the rounding is tightest; every pod is
    # one quantum, so the total lands on the target itself, not just near it.
    cluster = make_cluster("a", [1000], quantum=(quantum.cpu, quantum.memory))
    for tick in range(12):
        apply_workload(cluster, trace, tick)
        total = quantum.cpu * len(cluster.pods)
        assert total == target_demand(trace, tick, quantum).cpu
        if tick % 2:
            place_pending(cluster)  # some Running, some Pending
    before = snapshot(cluster)
    with pytest.raises(ValueError, match="tick must be >= 0, got -1"):
        apply_workload(cluster, trace, -1)
    assert cluster == before


def test_apply_workload_counts_running_and_pending_together():
    cluster = make_cluster("a", [4000])
    apply_workload(cluster, ConstantTrace(level=3000), tick=0)
    place_pending(cluster)
    # 30 pods, some running; raising to 3100 adds exactly one more.
    delta = apply_workload(cluster, ConstantTrace(level=3100), tick=1)
    assert len(delta.created) == 1 and delta.deleted == ()


def test_a_second_load_at_one_tick_raises_and_keeps_the_ledger():
    # Pod ids are unique per (cluster, tick): a second top-up at the same tick
    # would reuse c-p00000-0000, so it raises instead of replacing that pod.
    cluster = make_cluster("c", [4000, 4000], memory=8192)
    apply_workload(cluster, ConstantTrace(level=3000), tick=0)
    place_pending(cluster)
    before = snapshot(cluster)
    with pytest.raises(ValueError, match="cluster 'c' already holds pods created at tick 0"):
        apply_workload(cluster, ConstantTrace(level=7000), tick=0)
    assert cluster == before
    assert_load_matches_pods(cluster)


def test_apply_workload_is_deterministic():
    rng_a, rng_b = random.Random(42), random.Random(42)
    results = []
    for rng in (rng_a, rng_b):
        cluster = make_cluster("a", [4000])
        deltas = []
        for tick in range(30):
            trace = ConstantTrace(level=rng.randrange(0, 5000, 50))
            deltas.append(apply_workload(cluster, trace, tick))
        results.append((deltas, snapshot(cluster)))
    assert results[0] == results[1]
