"""The golden scenarios must produce the same bytes under every supported Python.

Looks for Python 3.10-3.13 interpreters other than the running minor version:
python3.1X on PATH, then $PYENV_ROOT/versions/3.1X*/bin/python (PYENV_ROOT
defaults to ~/.pyenv). One interpreter per minor version is kept, the first
that starts; a pyenv shim with no version selected exits with an error and is
passed over. The search runs in the test, not when the module is imported.
Each kept interpreter runs cli.main's `run` and `compare` on every
test_golden scenario in a single subprocess with PYTHONPATH=src, which needs
only the standard library, and the sha256 of each artifact must equal
test_golden.PINS. Skips when no such interpreter is found.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import PINS, SCENARIOS

SRC = Path(__file__).resolve().parents[1] / "src"

# Reads {name: scenario} on stdin, writes under argv[1], prints the digests
# of each scenario's artifacts as test_golden.digests computes them.
SCRIPT = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from nodebalancer.cli import main

def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()

out = Path(sys.argv[1])
result = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name, doc in json.load(sys.stdin).items():
        scenario = out / f"{name}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        run, cmp = out / name / "run", out / name / "cmp"
        codes = [
            main(["run", "--scenario", str(scenario), "--out", str(run)]),
            main(["compare", "--scenario", str(scenario), "--out", str(cmp)]),
        ]
        if codes != [0, 0]:
            result[name] = {"exit codes": codes}
            continue
        digests = {n: sha256(run / n) for n in ("events.jsonl", "metrics.csv", "summary.json")}
        digests["compare/summary.json"] = sha256(cmp / "summary.json")
        result[name] = digests
print(json.dumps(result))
"""


def _starts(executable: str, minor: int) -> bool:
    """Whether the interpreter runs and is Python 3.minor."""
    try:
        probe = subprocess.run(
            [executable, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]


def _interpreters() -> dict[str, str]:
    """{"3.1X": executable} for each other minor version 3.10-3.13 that starts."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = {}
    for minor in (10, 11, 12, 13):
        if sys.version_info[:2] == (3, minor):
            continue
        candidates = [shutil.which(f"python3.{minor}")]
        candidates += sorted(str(p) for p in pyenv.glob(f"versions/3.{minor}*/bin/python"))
        for executable in candidates:
            if executable and _starts(executable, minor):
                found[f"3.{minor}"] = executable
                break
    return found


def test_golden_pins_hold_under_other_pythons(tmp_path):
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10-3.13 interpreter found")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    digests = {}
    for version, executable in interpreters.items():
        out = tmp_path / version
        out.mkdir()
        result = subprocess.run(
            [executable, "-c", SCRIPT, str(out)],
            input=json.dumps(SCENARIOS), capture_output=True, text=True, env=env,
            timeout=300, check=False,
        )
        assert result.returncode == 0, f"Python {version}: {result.stderr}"
        digests[version] = json.loads(result.stdout)
    assert digests == {version: PINS for version in interpreters}
