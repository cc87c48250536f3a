"""Leaf navigation over the majority tree: stride ancestor links, LCA,
and discovery of the top height levels of a range's canonical set.

A node's stride link, to an ancestor about sqrt(lg n) levels up, lives
in this module's table, one dict per index that dies with the index.
Links are validated on read (the target must still be attached to the
tree, and its range must contain the node's range) and recomputed lazily
when stale, so restructures never have to chase incoming links. A node
is attached when it is the index's root or its parent still lists it
among its children: a restructure detaches the nodes it replaces and
moves their children's parent links to the new nodes, so a detached
node's old parent never lists it again.

Queries read no height levels: one walk collects a window's listed
nodes (``MajorityIndex._accumulate``). The paper's top levels are kept
as a plain decomposition (``MajorityIndex._top_groups``); this module
reproduces the paper's search for them, which the acceptance gate
checks against that decomposition.
"""

from __future__ import annotations

import math
import weakref

_links = weakref.WeakKeyDictionary()  # index -> {node: its stride link}


def ell_for(n: int) -> int:
    """Jump stride: ceil(sqrt(lg n)) for the current point count."""
    lgn = max(1, (max(n, 2) - 1).bit_length())
    r = math.isqrt(lgn)
    return r if r * r == lgn else r + 1


def _attached(index, v) -> bool:
    """Whether the node v is in index's tree."""
    return v is index.root if v.parent is None else v in v.parent.children


def _trusted_anc(index, node):
    """node's stride link in the table when it may be trusted, else None.

    A target is trusted iff it is attached, higher than node, and its
    range contains node's range: subtree ranges form a laminar family
    over distinct coordinates, so range containment by an attached node
    proves ancestry.
    """
    a = _links.get(index, {}).get(node)
    if (
        a is not None
        and a.height > node.height
        and a.min_leaf.coord <= node.min_leaf.coord
        and node.max_leaf.coord <= a.max_leaf.coord
        and _attached(index, a)
    ):
        return a
    return None


def resolve_anc(index, node, ell: int):
    """The stride link in the table, revalidated; recomputed when stale."""
    a = _trusted_anc(index, node)
    if a is not None:
        return a
    t = node
    for _ in range(ell):
        if t.parent is None:
            break
        t = t.parent
    links = _links.setdefault(index, {})
    if len(links) > 4 * len(index.F):
        # at most 2n nodes are attached: drop the links of detached ones
        for v in [v for v in links if not _attached(index, v)]:
            del links[v]
    links[node] = t
    return t


def lca(index, wa, wb):
    """Lowest common ancestor of two distinct leaves.

    Stride-jumps from wa until the jumped-to node covers wb's
    coordinate, then walks parent-by-parent from the last node that did
    not."""
    if wa is wb:
        raise ValueError("lca requires two distinct leaves")
    xb = wb.coord
    ell = ell_for(len(index.F))
    v = wa
    t = resolve_anc(index, v, ell)
    while not (t.min_leaf.coord <= xb <= t.max_leaf.coord):
        v = t
        t = resolve_anc(index, v, ell)
    u = v.parent
    while not (u.min_leaf.coord <= xb <= u.max_leaf.coord):
        u = u.parent
    return u


def findtop(index, wa, wb, z: int):
    """Nodes of the canonical set of [wa, wb] in its top z distinct
    heights, grouped as [(height, nodes)] with heights descending.

    Each stack frame resolves one LCA; emitting full children consumes
    one unit of the branch's level budget, and exhausted branches are
    dropped, which only ever discards heights below the kept ones. The
    number of LCAs resolved goes to index.stats["last_findtop_lca_calls"].
    """
    calls = 0
    collected = []
    stack = [(wa, wb, z)]
    while stack:
        a, b, budget = stack.pop()
        if budget <= 0:
            continue
        if a is b:
            collected.append(a)
            continue
        w = lca(index, a, b)
        calls += 1
        if w.min_leaf is a and w.max_leaf is b:
            collected.append(w)
            continue
        ch = w.children
        j = 0
        while ch[j].max_leaf.coord < a.coord:
            j += 1
        k = j
        while ch[k].max_leaf.coord < b.coord:
            k += 1
        left_full = ch[j].min_leaf is a
        right_full = ch[k].max_leaf is b
        pieces = []
        if left_full:
            pieces.append(ch[j])
        pieces.extend(ch[j + 1 : k])
        if right_full:
            pieces.append(ch[k])
        if pieces:
            collected.extend(pieces)
            budget -= 1
        if budget > 0:
            if not left_full:
                if a is ch[j].max_leaf:
                    collected.append(a)
                else:
                    stack.append((a, ch[j].max_leaf, budget))
            if not right_full:
                if b is ch[k].min_leaf:
                    collected.append(b)
                else:
                    stack.append((ch[k].min_leaf, b, budget))
    index.stats["last_findtop_lca_calls"] = calls

    heights = sorted({n.height for n in collected}, reverse=True)[:z]
    keep = set(heights)
    by_height = {h: [] for h in heights}
    for n in collected:
        if n.height in keep:
            by_height[n.height].append(n)
    return [(h, by_height[h]) for h in heights]


def audit_links(index, nodes, ell: int | None = None) -> None:
    """Check stride links and extreme-leaf links on the given nodes."""
    if ell is None:
        ell = ell_for(len(index.F))
    for node in nodes:
        a = _trusted_anc(index, node)
        if a is not None:
            # a validated cache entry must be a genuine ancestor
            t = node
            seen = False
            while t is not None:
                if t is a:
                    seen = True
                    break
                t = t.parent
            assert seen, "validated stride link is not an ancestor"
        _links.get(index, {}).pop(node, None)
        got = resolve_anc(index, node, ell)
        t = node
        for _ in range(ell):
            if t.parent is None:
                break
            t = t.parent
        assert got is t, "recomputed stride link differs from ell-fold walk"

        u = node
        while u.height:
            u = u.children[0]
        assert node.min_leaf is u
        u = node
        while u.height:
            u = u.children[-1]
        assert node.max_leaf is u
