"""Pods change only through Cluster.add_pods, pop_newest, bind and unbind,
which keep each node's pod_count and the cluster's pending set in step with
the pod column. These tests parse the package and fail if any module but
model.py stores into .pods, .pod_count or .pending, calls a mutating method on
one of them, or touches the column's private dict ._pods at all: any of
those would leave the others stale until the next audit.

A node moves between clusters only through the scheduler's drain, which
detaches it, and its provision, which attaches it. Any other module,
model.py and balancer.py included, that stores into or deletes from a
.nodes[...] is flagged too."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodebalancer"
# Cluster.pods, Node.pod_count, Cluster.pending
POD_FACTS = frozenset({"pods", "pod_count", "pending"})
MUTATORS = frozenset(
    {
        "add", "append", "clear", "difference_update", "discard", "extend", "insert",
        "intersection_update", "pop", "popitem", "remove", "reverse", "setdefault",
        "sort", "symmetric_difference_update", "update",
    }
)
HOSTING = frozenset({"scheduler.py"})  # the detach and the attach


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
    first: `c.nodes[k].pod_count` gives pod_count, nodes. A bare name gives none."""
    names = []
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    return names


def _column_changes(node):
    """Why the node changes a pod fact or touches ._pods, or None."""
    if isinstance(node, ast.Attribute) and node.attr == "_pods":
        return "touches ._pods"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
        and not POD_FACTS.isdisjoint(_attributes(node.func.value))
    ):
        return f"calls .{node.func.attr}() on .pods, .pod_count or .pending"
    return None


def bypasses(source: str, filename: str) -> list[str]:
    """Every store or call in the source that changes pods, their load or a
    node's host outside the module that owns it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if filename != "model.py":
            why = _column_changes(node)
            if why is not None:
                found.append((node.lineno, why))
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
            elif not POD_FACTS.isdisjoint(_attributes(target)):
                why = "stores into .pods, .pod_count or .pending"
            else:
                continue
            found.append((node.lineno, why))
    return [f"{filename}:{line}: {why}" for line, why in sorted(found)]


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
            "cluster.pods[pod_id] = node_id",
            "del cluster.pods[pod_id]",
            "cluster._pods.popitem()",
            "node_id = cluster._pods[pod_id]",
            "node.pod_count -= 1",
            "cluster.nodes[n].pod_count = 0",
            "cluster.pending.add(pod_id)",
            "cluster.pending.discard(pod_id)",
            "cluster.pending = set()",
            "cluster.pending.clear()",
            "cluster.nodes[n] = node",
            "del host.nodes[n]",
            "host.nodes[n], node.pod_count = node, 0",
        ]
    )
    assert bypasses(bad, "bad.py") == [
        "bad.py:1: stores into .pods, .pod_count or .pending",
        "bad.py:2: stores into .pods, .pod_count or .pending",
        "bad.py:3: touches ._pods",
        "bad.py:4: touches ._pods",
        "bad.py:5: stores into .pods, .pod_count or .pending",
        "bad.py:6: stores into .pods, .pod_count or .pending",
        "bad.py:7: calls .add() on .pods, .pod_count or .pending",
        "bad.py:8: calls .discard() on .pods, .pod_count or .pending",
        "bad.py:9: stores into .pods, .pod_count or .pending",
        "bad.py:10: calls .clear() on .pods, .pod_count or .pending",
        "bad.py:11: stores into .nodes[...]",
        "bad.py:12: stores into .nodes[...]",
        "bad.py:13: stores into .nodes[...]",
        "bad.py:13: stores into .pods, .pod_count or .pending",
    ]
    clean = "\n".join(
        [
            "running = cluster.pods[pod_id] is not None",
            "counts = Counter(cluster.pods.values())",
            "node = cluster.nodes[node_id]",
            "nodes[node_id] = Node(id=node_id, capacity=capacity, origin_cluster=cluster_id)",
            "counts = {node_id: 0 for node_id in cluster.nodes}",
            "counts[node_id] += 1",
            "pending = []",
            "pending.extend(outcome.pending)",
            "count = node.pod_count",
            "waiting = sorted(cluster.pending)",
            "pods = dict(cluster.pods)",
            "pods[pod_id] = node_id",
            "cluster.add_pods(created)",
            "cluster.bind(pod_id, node_id)",
        ]
    )
    assert bypasses(clean, "clean.py") == []
    # Each owner may make its own stores, and only those.
    assert bypasses("del cluster.nodes[node_id]", "scheduler.py") == []
    assert bypasses("cluster.nodes[node.id] = node", "scheduler.py") == []
    assert bypasses("self._pods[pod_id] = node_id", "model.py") == []
    assert bypasses("self.pending.remove(pod_id)", "model.py") == []
    assert bypasses("del self.nodes[node_id]", "model.py") == [
        "model.py:1: stores into .nodes[...]"
    ]
    assert bypasses("host.nodes[node.id] = node", "groups.py") == [
        "groups.py:1: stores into .nodes[...]"
    ]
    assert bypasses("cluster.nodes[node.id] = node", "balancer.py") == [
        "balancer.py:1: stores into .nodes[...]"
    ]
    assert bypasses("cluster.pending.add(pod_id)", "balancer.py") == [
        "balancer.py:1: calls .add() on .pods, .pod_count or .pending"
    ]
