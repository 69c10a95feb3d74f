"""Pods change only through Cluster.add_pod, delete_pod, bind and unbind,
which keep each node's used and the cluster's pending map in step with the
pods. These tests parse the package and fail if any module but model.py
writes a pod's assignment, the pod map, used or pending directly, which
would leave them stale until the next audit.

A node moves between clusters only through the scheduler's drain, which
detaches it, and the balancer's provision, which attaches it. Any other
module, model.py included, that stores into or deletes from a .nodes[...]
is flagged too."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodebalancer"
POD_LOAD = frozenset({"used", "pending"})  # Node.used and Cluster.pending
HOSTING = frozenset({"scheduler.py", "balancer.py"})  # the detach and the attach


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
    host outside the module that owns it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        for target, value in _stores(node):
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "nodes"
            ):
                if filename in HOSTING:
                    continue
                why = "stores into .nodes[...]"
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
            "cluster.nodes[n] = node",
            "del host.nodes[n]",
            "host.nodes[n], node.used = node, [0, 0]",
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
        "bad.py:9: stores into .nodes[...]",
        "bad.py:10: stores into .nodes[...]",
        "bad.py:11: stores into .nodes[...]",
        "bad.py:11: writes .used or .pending directly",
    ]
    clean = "\n".join(
        [
            "running = pod.assignment is not None",
            "node = cluster.nodes[node_id]",
            "nodes[node_id] = Node(id=node_id, capacity=capacity, origin_cluster=cluster_id)",
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
    assert bypasses("del cluster.nodes[node_id]", "scheduler.py") == []
    assert bypasses("cluster.nodes[node.id] = node", "balancer.py") == []
    assert bypasses("pod.assignment = node_id", "model.py") == []
    assert bypasses("del self.nodes[node_id]", "model.py") == [
        "model.py:1: stores into .nodes[...]"
    ]
    assert bypasses("host.nodes[node.id] = node", "groups.py") == [
        "groups.py:1: stores into .nodes[...]"
    ]
    assert bypasses("pod.assignment = node_id", "balancer.py") == [
        "balancer.py:1: assigns .assignment"
    ]
