"""Pinned artifact digests for a fixed set of scenarios.

Each scenario goes through the CLI twice, as `run` and as `compare`. The
sha256 of the run's events.jsonl, metrics.csv and summary.json and of the
comparison's top-level summary.json must equal the pinned values, so any
change to the bytes a scenario produces shows up here. A change that moves a
pin on purpose says why in CHANGES.md.

Seven scenarios are written by hand; eight more are the first Sine-free
documents helpers.random_scenario draws from a fixed rng, so editing that
helper moves their pins. No scenario uses a Sine trace: Sine levels go through
the C library's sin() right at the half-up quantization boundary, and these
pins must not depend on the platform.
"""

import hashlib
import json
import random

import pytest

from nodebalancer.cli import main

from helpers import random_scenario


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
    # Every node of d is full with one 2100m pod, so the drain of its victim
    # is infeasible each time d is consulted. At tick 2 a asks d, then takes
    # e's idle node; b, the second recipient, comes after both donors were
    # consulted and gets NoCandidate with no attempts. From tick 3 e is no
    # longer underutilized, and b is refused by d alone until its load drops.
    "infeasible-drain": {
        "clusters": [
            _cluster("a", 2, 4000, 8192, _steps((0, 2000), (2, 7600))),
            _cluster("b", 2, 4000, 8192, _steps((0, 2000), (2, 7200), (7, 3000))),
            _cluster("d", 3, 4000, 8192, {"kind": "Constant", "level": 6300}, (2100, 128)),
            _cluster("e", 4, 4000, 8192, {"kind": "Constant", "level": 9000}),
        ],
        "groups": [_group("g", 0.6, 0.85, 1, ["a", "b", "d", "e"])],
        "ticks": 10,
        "seed": 7,
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


def _random_corpus(seed, count):
    """The first count Sine-free scenarios random_scenario draws from one rng."""
    rng = random.Random(seed)
    corpus = {}
    while len(corpus) < count:
        doc = random_scenario(rng)
        if all(spec["trace"]["kind"] != "Sine" for spec in doc["clusters"]):
            corpus[f"random-{len(corpus)}"] = doc
    return corpus


# rng 3 is the first whose eight Sine-free draws include three with membership
# changes (random-0, random-2 and random-7).
SCENARIOS.update(_random_corpus(3, 8))

PINS = {
    "bulk-pods": {
        "events.jsonl": "4b56f4741092879c706f89c790c50ea9d6396593ab520480401d3f5879c05bf0",
        "metrics.csv": "7a49ae8b61545e058dd3c6b1215e060b5a498fc6c1737d9c54f82c8f45e5a088",
        "summary.json": "c4a02f8b15a497587dc4453e2de4976947a98f35472d3f3f14ae262e923ce40c",
        "compare/summary.json": "806e3c6619c82509a796521977a601f076f6c8e1623546eb83536437711b3326",
    },
    "infeasible-drain": {
        "events.jsonl": "1651d658f64e70d9b8dea813e9c1f37482554a0c0e0ef29f729553395c8289e1",
        "metrics.csv": "039436649ccb107507820f1dccf441e5b96cb5d029eba5e5e5c96d88df8a4094",
        "summary.json": "80345655407c92a75f4af1c05e19a303e24ec4fb6a5e96176bf53ec20ef01448",
        "compare/summary.json": "4e7ed870e0ec3af023c9c79443694a5e5eba98fe581d5dcf9870bd9ec980ed58",
    },
    "membership": {
        "events.jsonl": "681cbf13d48690a3a5af5d1df20f3213d885a0d14dbd8a75f064855a4c815796",
        "metrics.csv": "3f166da192d7aa85d45138dd1ed929e7b440f4417f12af225aec16c6bac45cd4",
        "summary.json": "fae8183549ecb3c1f736a1c823dd1267b6da241a415f2ad4791fc6383023f90c",
        "compare/summary.json": "e958d413bd9649348f0c2cebc468ea06873656ee3d97d14d1fd32431e922ce61",
    },
    "random-0": {
        "events.jsonl": "5cf8010c062ea0518111499b0d5dbf842ae60d9c12e215e1c77119b98d529552",
        "metrics.csv": "1c2d5bbd2ce49173c5eead896f0f11d56fed3a6ce43aadaafa35bcb6a17a5a96",
        "summary.json": "923c52865be5baf610f1346791aea997f90853942417006cf97466090544d047",
        "compare/summary.json": "e6b720dd933856a31b66e65c17d27d7a63848e7a1b6f204bbfd2e637722dca9c",
    },
    "random-1": {
        "events.jsonl": "1726494df8a9f59719937e49bf47e7996ecbb8f0e820f9538806950c09a07f8e",
        "metrics.csv": "65c507737bc2ae6c957432b6391b41ab61ff5658c5751c7ff6aa1457033ea2c1",
        "summary.json": "c2d73640740e6004a1e827bdfb049d065260e53d68ad480192ce4f62648c313f",
        "compare/summary.json": "2f47b2b73e8c806692dda85a9d3ca6d5224a4bf600990fdab6d6d9838ab890a1",
    },
    "random-2": {
        "events.jsonl": "575cf110a0a47832f6217a3968d6ae55c174c8085db185fbcd5cb590df640402",
        "metrics.csv": "280188e7c505e7970ce48b5deb37c6f211d57c3a7956f7c20225f428f8393f09",
        "summary.json": "b49d1759ca42ad053c15aca1753f727497971a1849fe5d2ba5e64f262f1a4415",
        "compare/summary.json": "77fb1df0839fa94be279d8f8ab75a8f7cbcd0d43ffe34cc51b7fc6d7d6c86fde",
    },
    "random-3": {
        "events.jsonl": "e16ffa876b89d990607678270695cf85ce5879bf27ebb725e582f7091d49f4a9",
        "metrics.csv": "5531c2ab1b0594c4821d24aac223e361058ca0888b4c4e854c710466691b5a37",
        "summary.json": "2e5d9bb0ce390c03eb80624507fe41f4c888af3c9dadaeace836bdb27b90897c",
        "compare/summary.json": "61a794e30ac70d9876d6f22684ee502b791eb85a1f51746d9b0cc9433c5e2f2f",
    },
    "random-4": {
        "events.jsonl": "dc983e9e377123f2640dc81bb99ee558dde4fe21eda21da4825570f42cb84ac0",
        "metrics.csv": "78ab99ac50dfc945afefd3ca03877f015f502fa6b0f7bb7f65743428dd901d64",
        "summary.json": "87000aeaf2f1dba7ac5c986c0f7e640daedfff391bd9b6466052a171c463771f",
        "compare/summary.json": "32602d01654cf0f2a67c95b968b2d7b06363ce7f4a398de6239b2facbe5d430f",
    },
    "random-5": {
        "events.jsonl": "34adad9e1c7e1acc357c97a1483581ccf89fd054ddb7cc165e78c18d1d0bdcef",
        "metrics.csv": "981bdcf9de7276753580b4aa4afb86103862e296b129bec7153e368fdc368aa0",
        "summary.json": "936faa50c7429997aacbacca30efa6d01cd0a4ff7860c83e623a933c38cd48ed",
        "compare/summary.json": "0bccce7f5d06da6e42a22949a1bd037833a389cc5e0de5076f4e217908894101",
    },
    "random-6": {
        "events.jsonl": "c7c9475a24985e329baaffe70b130f0242e86b991540454bd4f645efa0b054f2",
        "metrics.csv": "b50b20e98c383acad736c55cc801f0ea95a2adc25b848acc13eb6d9a57a4e8e3",
        "summary.json": "21284fbe98cbf1e9dd8e9c42bd0edee43d85b548c657c128f961a02ce8c1ff42",
        "compare/summary.json": "c87ceb0a1fbfa41041f4f1c38cfc9a11de850b1dabc75e63b9b3762932387d9a",
    },
    "random-7": {
        "events.jsonl": "f459dbf8a582ad7f62d9912757380f2e78e1420688e3d030556796c9b89c5eab",
        "metrics.csv": "65d3df79ba35d5e51feaa09a61f6c842aed0d758108c13ae64c8eeb9f8ba72f8",
        "summary.json": "1915043227aadca63b671cfc15d5e650797fc28c72aab1d757563ef3bab01b52",
        "compare/summary.json": "a22ad22dab745bf5feac9175e33327e787a7acd06ecbffc84e151722ccf5c69e",
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
