"""Pods change only through Cluster.add_pod, delete_pod, bind and unbind,
which keep the cluster's ledger in step. These tests parse the package and
fail if any module but model.py writes a pod's assignment, the pod map or
the ledger directly, which would leave the ledger stale until the next
audit. A pod's state is derived from its assignment and cannot be written."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodebalancer"


def _stores(node):
    """(target, value) for each store or delete; value is None where unknown."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if not isinstance(target, ast.Tuple):
                yield target, node.value
            elif isinstance(node.value, ast.Tuple) and len(node.value.elts) == len(target.elts):
                yield from zip(target.elts, node.value.elts)
            else:
                yield from ((elt, None) for elt in target.elts)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target, node.value
    elif isinstance(node, ast.Delete):
        yield from ((target, None) for target in node.targets)


def _names(target):
    """Attribute names along an attribute or subscript target, then its base
    name: `c.ledger.used[k]` gives used, ledger, c."""
    names = []
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node is not target:
        names.append(node.id)
    return names


def bypasses(source: str, filename: str) -> list[str]:
    """Every store in the source that changes pods or the ledger directly."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        for target, value in _stores(node):
            if isinstance(target, ast.Attribute) and target.attr == "assignment":
                why = "assigns .assignment"
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "pods"
            ):
                why = "stores into .pods[...]"
            elif "ledger" in _names(target):
                why = "writes the ledger"
            else:
                continue
            found.append(f"{filename}:{node.lineno}: {why}")
    return found


def test_only_the_model_changes_pods_or_the_ledger():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "model.py" in modules and len(modules) > 1
    found = [
        line
        for path in modules
        if path.name != "model.py"
        for line in bypasses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_the_guard_flags_every_kind_of_bypass_and_nothing_else():
    bad = "\n".join(
        [
            "pod.assignment = node_id",
            "pod.state, pod.assignment = PodState.RUNNING, None",
            "cluster.pods[pod.id] = pod",
            "del cluster.pods[pod.id]",
            "cluster.ledger.total_cpu += 100",
            "ledger.used[node_id][0] -= 1",
        ]
    )
    assert bypasses(bad, "bad.py") == [
        "bad.py:1: assigns .assignment",
        "bad.py:2: assigns .assignment",
        "bad.py:3: stores into .pods[...]",
        "bad.py:4: stores into .pods[...]",
        "bad.py:5: writes the ledger",
        "bad.py:6: writes the ledger",
    ]
    clean = "\n".join(
        [
            "state = PodState.RUNNING",
            "running = pod.state is PodState.RUNNING",
            "node.state = NodeState.ACTIVE",
            "total = cluster.ledger.total_cpu",
            "ledger = cluster.ledger",
            "pods = dict(cluster.pods)",
            "pods[pod.id] = pod",
        ]
    )
    assert bypasses(clean, "clean.py") == []
