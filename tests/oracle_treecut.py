"""Reference fine partition and validator: the cutter and checker as first
written.

Each new cut vertex re-floods the whole tree (_components_with_anchors) and
scans every cut vertex for each component's anchors; the two-anchor
candidates come from a BFS between the anchors (_path_between), and the
parity clause runs one BFS per W_A vertex.  structhunt.treecut computes the
same W_A, W_B, shrubs, knags and reports by re-flooding only the component
a cut splits and by one two-colouring of the tree; the two share no
partition or validation code, so they cross-check each other.
"""

from __future__ import annotations

from structhunt.report import Report
from structhunt.treecut import FinePartition, Shrub, Tree


def _components_with_anchors(adj, removed):
    k = len(adj)
    out = []
    seen = set(removed)
    for start in range(k):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in removed or u in comp:
                    continue
                comp.add(u)
                stack.append(u)
        seen |= comp
        anchors = frozenset(w for w in removed
                            if any(u in comp for u in adj[w]))
        out.append((frozenset(comp), anchors))
    return out


def _best_cut_vertex(adj, comp, candidates):
    """Candidate minimizing the largest resulting piece within comp.

    comp is a connected subtree, so one pass from its lowest vertex gives
    every subtree size: removing c leaves c's child subtrees and the rest
    of comp above c.  Ties go to the lowest id.
    """
    root = min(comp)
    parent = {root: None}
    order = [root]
    for v in order:  # grows while iterated: parents precede children
        for u in adj[v]:
            if u in comp and u not in parent:
                parent[u] = v
                order.append(u)
    size = dict.fromkeys(order, 1)
    heaviest_child = dict.fromkeys(order, 0)
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        heaviest_child[p] = max(heaviest_child[p], size[v])
    best = None
    best_size = None
    for c in sorted(candidates):
        worst = max(heaviest_child[c], len(comp) - size[c])
        if best is None or worst < best_size:
            best, best_size = c, worst
    return best


def _path_between(adj, comp, a, b):
    """Vertices of comp on the tree path between anchors a and b."""
    # BFS from the neighbour side of a within comp toward b
    start_candidates = [u for u in adj[a] if u in comp]
    prev = {}
    from collections import deque

    q = deque()
    for s in start_candidates:
        q.append(s)
        prev[s] = None
    target = None
    while q:
        v = q.popleft()
        if b in adj[v]:
            target = v
            break
        for u in adj[v]:
            if u in comp and u not in prev:
                prev[u] = v
                q.append(u)
    if target is None:
        return sorted(comp)  # b not reachable through comp; fall back
    path = []
    v = target
    while v is not None:
        path.append(v)
        v = prev[v]
    return path


def fine_partition(t: Tree, target_w: int, c: int = 2) -> FinePartition:
    """Cut-vertex selection by component splitting, then A/B colouring.

    Components with two anchors are split on the anchor path (keeps every
    shrub at <= 2 anchors); others at their centroid.  W_B collects cut
    vertices only when the parity and internal-anchor constraints allow a
    two-colour split, else W_B is empty (which satisfies every clause
    vacuously).
    """
    if target_w > t.k:
        raise ValueError("cut budget exceeds tree order")
    if target_w < 1:
        raise ValueError("cut budget must be positive")
    if t.k < 2:
        raise ValueError("tree must have at least 2 vertices")
    adj = t.adjacency()
    W = set()
    limit = -(-c * t.k // target_w)  # ceil(c k / budget)
    while len(W) < target_w:
        comps = _components_with_anchors(adj, W)
        big = [(comp, anchors) for comp, anchors in comps if len(comp) > limit]
        pool = big if big else [(comp, anchors) for comp, anchors in comps
                                if len(comp) > 1]
        if not pool:
            break
        comp, anchors = max(pool, key=lambda ca: (len(ca[0]), -min(ca[0])))
        if len(anchors) >= 2:
            a, b = sorted(anchors)[:2]
            candidates = _path_between(adj, comp, a, b)
        else:
            candidates = comp
        W.add(_best_cut_vertex(adj, comp, candidates))
        if not big and len(W) >= 1:
            break

    # two-colour the tree, then assign W_A/W_B
    colour = [0] * t.k
    root = t.parent.index(-1)
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                colour[u] = 1 - colour[v]
                seen.add(u)
                stack.append(u)

    comps = _components_with_anchors(adj, W)
    internal_anchors = set()
    for comp, anchors in comps:
        if len(anchors) == 2:
            internal_anchors |= anchors
    anchor_colours = {colour[w] for w in internal_anchors}
    if len(anchor_colours) <= 1:
        cls = anchor_colours.pop() if anchor_colours else colour[min(W)]
        W_A = frozenset(w for w in W if colour[w] == cls)
        W_B = frozenset(W) - W_A
    else:
        W_A, W_B = frozenset(W), frozenset()

    shrubs = [Shrub(comp, anchors) for comp, anchors in comps]
    knags = _knag_components(adj, W)
    return FinePartition(t, W_A, W_B, shrubs, knags, target_w, c)


def _knag_components(adj, W):
    W = set(W)
    seen = set()
    knags = []
    for start in sorted(W):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in W and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        knags.append(frozenset(comp))
    return knags


def validate_fine_partition(fp: FinePartition) -> Report:
    """Exact check of every fine-partition clause via BFS recomputation."""
    t = fp.tree
    adj = t.adjacency()
    rep = Report("fine partition")
    W = fp.W
    if not W <= frozenset(range(t.k)):
        raise ValueError("W contains non-tree vertices")
    rep.add("W_A and W_B disjoint", not (fp.W_A & fp.W_B))
    rep.add("|W| within budget", len(W) <= fp.budget, measured=len(W),
            needed=fp.budget)

    from collections import deque

    def bfs_dist(src):
        dist = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        return dist

    parity_ok = True
    for a in sorted(fp.W_A):
        dist = bfs_dist(a)
        for b in sorted(fp.W_B):
            if dist[b] % 2 == 0:
                parity_ok = False
    rep.add("all W_A-W_B distances odd", parity_ok)

    comps = _components_with_anchors(adj, W)
    expected = {comp: anchors for comp, anchors in comps}
    got = {s.vertices: s.anchors for s in fp.shrubs}
    rep.add("shrubs are exactly the components of T - W", expected == got)
    count_ok = all(len(anchors) in (1, 2) for _, anchors in comps)
    rep.add("each shrub has 1 or 2 anchors", count_ok)
    internal_ok = all(anchors <= fp.W_A
                      for _, anchors in comps if len(anchors) == 2)
    rep.add("internal shrubs anchor only in W_A", internal_ok)
    limit = -(-fp.c * t.k // len(W)) if W else t.k
    big = max((len(comp) for comp, _ in comps), default=0)
    rep.add("shrub order <= ceil(c k / |W|)", big <= limit, measured=big,
            needed=limit)
    rep.add("knags are the components of T[W]",
            sorted(fp.knags) == sorted(_knag_components(adj, W)))
    total = fp.t_int + fp.t_end + len(W)
    rep.add("t_int + t_end + |W| = k", total == t.k, measured=total, needed=t.k)
    return rep
