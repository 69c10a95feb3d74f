"""Pods change only through Cluster.add_pod, delete_pod, bind and unbind,
which keep each node's used and the cluster's pending map in step with the
pods. These tests parse the package and fail if any module but model.py
writes a pod's assignment, the pod map, used or pending directly, which
would leave them stale until the next audit.

A node's state moves only through the scheduler's drain and the balancer's
deprovision and provision, so the audit's check that every hosted node ends
the tick Active holds the lifecycle to those two modules. Any other module
that stores a .state is flagged too."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodebalancer"
POD_LOAD = frozenset({"used", "pending"})  # Node.used and Cluster.pending
LIFECYCLE = frozenset({"scheduler.py", "balancer.py"})  # the modules that set Node.state


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


def _attributes(target):
    """Attribute names along an attribute or subscript target, outermost
    first: `c.nodes[k].used[0]` gives used, nodes. A bare name gives none."""
    names = []
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    return names


def bypasses(source: str, filename: str) -> list[str]:
    """Every store in the source that changes pods, their load or a node's
    state outside the module that owns it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        for target, value in _stores(node):
            if isinstance(target, ast.Attribute) and target.attr == "state":
                if filename in LIFECYCLE:
                    continue
                why = "stores a .state"
            elif filename == "model.py":
                continue
            elif isinstance(target, ast.Attribute) and target.attr == "assignment":
                why = "assigns .assignment"
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "pods"
            ):
                why = "stores into .pods[...]"
            elif not POD_LOAD.isdisjoint(_attributes(target)):
                why = "writes .used or .pending directly"
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
        for line in bypasses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_the_guard_flags_every_kind_of_bypass_and_nothing_else():
    bad = "\n".join(
        [
            "pod.assignment = node_id",
            "pod.demand, pod.assignment = quantum, None",
            "cluster.pods[pod.id] = pod",
            "del cluster.pods[pod.id]",
            "node.used[0] -= 1",
            "cluster.nodes[n].used = [0, 0]",
            "cluster.pending[p.id] = p",
            "del cluster.pending[p.id]",
            "node.state = NodeState.ACTIVE",
            "node.state, node.used = NodeState.RESERVED, [0, 0]",
        ]
    )
    assert bypasses(bad, "bad.py") == [
        "bad.py:1: assigns .assignment",
        "bad.py:2: assigns .assignment",
        "bad.py:3: stores into .pods[...]",
        "bad.py:4: stores into .pods[...]",
        "bad.py:5: writes .used or .pending directly",
        "bad.py:6: writes .used or .pending directly",
        "bad.py:7: writes .used or .pending directly",
        "bad.py:8: writes .used or .pending directly",
        "bad.py:9: stores a .state",
        "bad.py:10: stores a .state",
        "bad.py:10: writes .used or .pending directly",
    ]
    clean = "\n".join(
        [
            "running = pod.assignment is not None",
            "active = node.state is NodeState.ACTIVE",
            "used = {node_id: [0, 0] for node_id in cluster.nodes}",
            "used[node_id][0] += demand.cpu",
            "pending = []",
            "cpu, memory = node.used",
            "waiting = cluster.pending[pod_id]",
            "pods = dict(cluster.pods)",
            "pods[pod.id] = pod",
        ]
    )
    assert bypasses(clean, "clean.py") == []
    # Each owner may make its own stores, and only those.
    assert bypasses("node.state = NodeState.RESERVED", "scheduler.py") == []
    assert bypasses("node.state = NodeState.IN_TRANSIT", "balancer.py") == []
    assert bypasses("pod.assignment = node_id", "model.py") == []
    assert bypasses("node.state = NodeState.ACTIVE", "model.py") == [
        "model.py:1: stores a .state"
    ]
    assert bypasses("pod.assignment = node_id", "balancer.py") == [
        "balancer.py:1: assigns .assignment"
    ]
