import random

import pytest

from nodebalancer import Group, Thresholds, evaluate_group
from nodebalancer.errors import InvalidThresholds, UnknownCluster

from helpers import make_cluster, run_pod


def _world(loads, memory=100000):
    """One single-node cluster per load, with u equal to load/1000."""
    clusters = {}
    for i, load in enumerate(loads):
        cid = f"c{i}"
        cluster = make_cluster(cid, [1000], memory=memory, quantum=(load or 100, 1))
        if load:
            run_pod(cluster, f"{cid}-n000")
        clusters[cid] = cluster
    return clusters


def test_valid_thresholds_accepted():
    assert Thresholds(0.3, 0.8) == Thresholds(t_low=0.3, t_high=0.8)
    assert Thresholds(0.01, 1.0).t_high == 1.0  # t_high may sit at 1


@pytest.mark.parametrize(
    "t_low,t_high",
    [(0.8, 0.3), (0.5, 0.5), (0.0, 0.8), (-0.1, 0.8), (0.3, 1.5), (0.3, 0.0), (1.0, 1.0)],
)
def test_bad_thresholds_rejected(t_low, t_high):
    with pytest.raises(InvalidThresholds):
        Thresholds(t_low, t_high)


@pytest.mark.parametrize(
    "t_low,t_high,message",
    [
        (0.0, 0.8, r"t_low must be in \(0, 1\), got 0.0"),
        (0.3, 1.5, r"t_high must be in \(0, 1\], got 1.5"),
        (0.8, 0.3, r"t_low must be strictly less than t_high, got \(0.8, 0.3\)"),
        (float("nan"), 0.8, r"t_low must be in \(0, 1\), got nan"),
    ],
)
def test_bad_thresholds_name_the_violated_relation(t_low, t_high, message):
    with pytest.raises(InvalidThresholds, match=message):
        Thresholds(t_low, t_high)


def test_classification_and_ordering():
    clusters = _world([900, 300, 200])
    group = Group(id="g", members=["c0", "c1", "c2"], thresholds=Thresholds(0.4, 0.8))
    evaluation = evaluate_group(group, clusters)

    # Reference partition from raw ratios.
    ratios = {cid: (900, 300, 200)[i] / 1000 for i, cid in enumerate(group.members)}
    over = sorted((cid for cid, u in ratios.items() if u > 0.8), key=lambda c: (-ratios[c], c))
    under = sorted((cid for cid, u in ratios.items() if u < 0.4), key=lambda c: (ratios[c], c))

    assert evaluation.overutilized == tuple(over) == ("c0",)
    assert evaluation.underutilized == tuple(under) == ("c2", "c1")


def test_band_interior_is_quiet():
    clusters = _world([500, 500, 500])
    group = Group(id="g", members=list(clusters), thresholds=Thresholds(0.4, 0.8))
    evaluation = evaluate_group(group, clusters)
    assert evaluation.overutilized == ()
    assert evaluation.underutilized == ()


def test_thresholds_are_strict():
    # Sitting exactly on a threshold is inside the band.
    clusters = _world([800, 400])
    group = Group(id="g", members=["c0", "c1"], thresholds=Thresholds(0.4, 0.8))
    evaluation = evaluate_group(group, clusters)
    assert evaluation.overutilized == ()
    assert evaluation.underutilized == ()


def test_ties_break_by_ascending_cluster_id():
    clusters = _world([100, 100, 900, 900])
    group = Group(id="g", members=["c3", "c1", "c2", "c0"], thresholds=Thresholds(0.4, 0.8))
    evaluation = evaluate_group(group, clusters)
    assert evaluation.overutilized == ("c2", "c3")
    assert evaluation.underutilized == ("c0", "c1")


def test_member_order_is_irrelevant():
    rng = random.Random(707)
    loads = [rng.randrange(0, 1100, 100) for _ in range(6)]
    clusters = _world(loads)
    members = list(clusters)
    group = Group(id="g", members=members, thresholds=Thresholds(0.3, 0.7))
    reference = evaluate_group(group, clusters)
    for _ in range(20):
        rng.shuffle(members)
        shuffled = Group(id="g", members=list(members), thresholds=Thresholds(0.3, 0.7))
        assert evaluate_group(shuffled, clusters) == reference


def test_partitions_are_disjoint_and_monotone():
    rng = random.Random(808)
    for _ in range(100):
        loads = [rng.randrange(0, 1100, 100) for _ in range(rng.randint(1, 6))]
        clusters = _world(loads)
        t_low = round(rng.uniform(0.05, 0.5), 2)
        t_high = round(rng.uniform(t_low + 0.05, 1.0), 2)
        group = Group(id="g", members=list(clusters), thresholds=Thresholds(t_low, t_high))
        evaluation = evaluate_group(group, clusters)
        assert not (set(evaluation.overutilized) & set(evaluation.underutilized))

        # Widening the band never adds members to either side.
        wider = Group(
            id="g",
            members=list(clusters),
            thresholds=Thresholds(max(t_low / 2, 0.01), min(t_high + 0.2, 1.0)),
        )
        wide_eval = evaluate_group(wider, clusters)
        assert set(wide_eval.overutilized) <= set(evaluation.overutilized)
        assert set(wide_eval.underutilized) <= set(evaluation.underutilized)


def test_unknown_member_is_an_error():
    clusters = _world([500])
    group = Group(id="g", members=["c0", "ghost"], thresholds=Thresholds(0.4, 0.8))
    with pytest.raises(UnknownCluster):
        evaluate_group(group, clusters)


def test_invalid_thresholds_rejected_at_evaluation():
    # A group cannot hold an invalid pair: the pair fails as it is built.
    with pytest.raises(InvalidThresholds):
        Group(id="g", members=["c0"], thresholds=Thresholds(0.9, 0.2))
