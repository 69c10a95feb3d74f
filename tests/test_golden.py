"""Pinned artifact digests for a fixed set of scenarios.

Each scenario goes through the CLI twice, as `run` and as `compare`. The
sha256 of the run's events.jsonl, metrics.csv and summary.json and of the
comparison's top-level summary.json must equal the pinned values, so any
change to the bytes a scenario produces shows up here. A change that moves a
pin on purpose says why in CHANGES.md.

No scenario uses a Sine trace: Sine levels go through the C library's sin()
right at the half-up quantization boundary, and these pins must not depend on
the platform.
"""

import hashlib
import json

import pytest

from nodebalancer.cli import main


def _cluster(cid, node_count, cpu, memory, trace, quantum=None):
    if quantum is not None:
        trace = dict(trace, pod_quantum={"cpu_millicores": quantum[0], "memory_mib": quantum[1]})
    return {
        "id": cid,
        "node_count": node_count,
        "node_capacity": {"cpu_millicores": cpu, "memory_mib": memory},
        "trace": trace,
    }


def _group(gid, t_low, t_high, interval, members):
    return {
        "id": gid,
        "thresholds": {"t_low": t_low, "t_high": t_high},
        "balance_interval": interval,
        "members": members,
    }


def _steps(*pairs):
    return {"kind": "Step", "steps": [{"tick": t, "level": level} for t, level in pairs]}


SCENARIOS = {
    # A burst pulls a node from an idle member.
    "spike-move": {
        "clusters": [
            _cluster("a", 2, 4000, 8192,
                     {"kind": "Spike", "base": 2000, "peak": 7500, "start": 3, "duration": 6}),
            _cluster("b", 3, 4000, 8192, {"kind": "Constant", "level": 2000}),
        ],
        "groups": [_group("g", 0.3, 0.8, 1, ["a", "b"])],
        "ticks": 14,
        "seed": 1,
    },
    # The quietest donor would overshoot t_high with one node fewer, so its
    # move is reversed before the next candidate donates.
    "reversal": {
        "clusters": [
            _cluster("a", 1, 4000, 8192, _steps((0, 1000), (2, 3800), (9, 1200))),
            _cluster("b", 2, 4000, 8192, {"kind": "Constant", "level": 2200}),
            _cluster("c", 4, 4000, 8192, {"kind": "Constant", "level": 4600}),
        ],
        "groups": [_group("g", 0.3, 0.5, 1, ["a", "b", "c"])],
        "ticks": 12,
        "seed": 2,
    },
    # A borrower leaves and rejoins, then a lender leaves and recalls its
    # nodes, displacing the pods they were running.
    "membership": {
        "clusters": [
            _cluster("a", 2, 4000, 8192, _steps((0, 2000), (2, 7600), (14, 6000))),
            _cluster("b", 3, 4000, 8192, {"kind": "Constant", "level": 2400}),
            _cluster("c", 2, 3000, 4096, _steps((0, 1000), (5, 5400))),
            _cluster("d", 4, 3000, 4096, {"kind": "Constant", "level": 1800}),
        ],
        "groups": [_group("g", 0.3, 0.8, 1, ["a", "b", "c", "d"])],
        "membership_changes": [
            {"tick": 8, "action": "Remove", "cluster": "a", "group": "g"},
            {"tick": 11, "action": "Add", "cluster": "a", "group": "g"},
            {"tick": 16, "action": "Remove", "cluster": "b", "group": "g"},
            {"tick": 19, "action": "Remove", "cluster": "d", "group": "g"},
        ],
        "ticks": 24,
        "seed": 3,
    },
    # Hundreds of 50m pods per cluster: demand steps down by hundreds of pods
    # in one tick, so deletion happens in bulk.
    "bulk-pods": {
        "clusters": [
            _cluster("a", 6, 4000, 16384,
                     _steps((0, 20000), (4, 6000), (7, 23000), (12, 11000)), (50, 64)),
            _cluster("b", 5, 4000, 16384, _steps((0, 5500), (9, 3000)), (50, 64)),
            _cluster("c", 3, 4000, 16384, {"kind": "Constant", "level": 9000}, (50, 64)),
        ],
        "groups": [_group("g", 0.3, 0.8, 1, ["a", "b", "c"])],
        "ticks": 16,
        "seed": 4,
    },
    # Memory-bound pods, two groups on different intervals, and a group whose
    # only donor has a single node, so its hot member finds no candidate.
    "two-groups": {
        "clusters": [
            _cluster("a", 2, 8000, 4096, _steps((0, 1000), (3, 2600)), (100, 512)),
            _cluster("b", 3, 8000, 4096, {"kind": "Constant", "level": 500}, (100, 512)),
            _cluster("c", 2, 4000, 8192, {"kind": "Constant", "level": 7200}),
            _cluster("d", 1, 4000, 8192,
                     {"kind": "Spike", "base": 400, "peak": 3000, "start": 6, "duration": 4}),
        ],
        "groups": [
            _group("hot", 0.2, 0.7, 3, ["c", "d"]),
            _group("mem", 0.25, 0.75, 2, ["a", "b"]),
        ],
        "ticks": 15,
        "seed": 5,
    },
    # No groups at all: overload only builds a Pending backlog, and the
    # comparison's two runs are identical.
    "ungrouped": {
        "clusters": [
            _cluster("a", 2, 2000, 4096,
                     {"kind": "Spike", "base": 1500, "peak": 6000, "start": 2, "duration": 5}),
            _cluster("b", 1, 3000, 2048, {"kind": "Constant", "level": 3500}),
        ],
        "ticks": 10,
        "seed": 6,
    },
}

PINS = {
    "bulk-pods": {
        "events.jsonl": "4b56f4741092879c706f89c790c50ea9d6396593ab520480401d3f5879c05bf0",
        "metrics.csv": "7a49ae8b61545e058dd3c6b1215e060b5a498fc6c1737d9c54f82c8f45e5a088",
        "summary.json": "c4a02f8b15a497587dc4453e2de4976947a98f35472d3f3f14ae262e923ce40c",
        "compare/summary.json": "806e3c6619c82509a796521977a601f076f6c8e1623546eb83536437711b3326",
    },
    "membership": {
        "events.jsonl": "681cbf13d48690a3a5af5d1df20f3213d885a0d14dbd8a75f064855a4c815796",
        "metrics.csv": "3f166da192d7aa85d45138dd1ed929e7b440f4417f12af225aec16c6bac45cd4",
        "summary.json": "fae8183549ecb3c1f736a1c823dd1267b6da241a415f2ad4791fc6383023f90c",
        "compare/summary.json": "e958d413bd9649348f0c2cebc468ea06873656ee3d97d14d1fd32431e922ce61",
    },
    "reversal": {
        "events.jsonl": "401b265a60dc303f15f4bf83a4fc776fd8e2e55141d59d2e4c517a514f6c7067",
        "metrics.csv": "c46f3033ccf0239a6f1f90b212d801c58e440bc0c4a6c5457f108cdcd84487e8",
        "summary.json": "e3b219e5a7ed974ac93556504c92b1e076262bc37dffe83012f5aac9ea940b56",
        "compare/summary.json": "847ee8546555823b860bd12e320dfdb97e3224e1ad500dcb2650a519f0ed2159",
    },
    "spike-move": {
        "events.jsonl": "42279cd171814b7367ab41e7b7d691c3d6d850626b4a0ad883793e42dc1c14cf",
        "metrics.csv": "901f89c571a1a340011799aa13345498e5b7e44335833670bd79122e3e26ae54",
        "summary.json": "524ee2a64d046020bb43e6bd06577241a4ce17cc022b800715408e7235b4ffd3",
        "compare/summary.json": "27696e2e8101c4d5ddb33c42942ef64a7995df8dfa49bdc4b2056a8aff1e007c",
    },
    "two-groups": {
        "events.jsonl": "77a3ea728d94f1684646bddaa48dad3f7d0960282ff36d89b5d7521f5b194224",
        "metrics.csv": "76c49541924039d71214077c729ae2eef0f3ca3c87dc2900b984ab252800637f",
        "summary.json": "285f98abc3f08212585dcafda6809ad626e9b5ccb9c8d4de36717d2575c44c51",
        "compare/summary.json": "e2c7e4fab73de23208f35b4a3e3966a5cf164073a9c41a4279b2026f93be3b2b",
    },
    "ungrouped": {
        "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics.csv": "61593007a44a672ff4e58235a0d259f6a6747ae530cb28c1d4c76e8a9c93f98f",
        "summary.json": "fc3fb18e8e9fa0bbfbfe27a77e2d66ba324864dc31befceebc165b38e3c20105",
        "compare/summary.json": "b6978b10578330a7676276e79aa26e7a126cd9d18c6bbbf9014f105c53f47a1f",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(doc, tmp_path):
    """Digests of a scenario's run artifacts and comparison summary."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 0
    assert main(["compare", "--scenario", str(scenario), "--out", str(tmp_path / "cmp")]) == 0
    result = {
        name: _sha256(tmp_path / "run" / name)
        for name in ("events.jsonl", "metrics.csv", "summary.json")
    }
    result["compare/summary.json"] = _sha256(tmp_path / "cmp" / "summary.json")
    return result


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name, tmp_path):
    assert digests(SCENARIOS[name], tmp_path) == PINS[name]
