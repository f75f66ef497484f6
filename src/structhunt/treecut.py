"""Fine partitions of trees: heuristic cutter and exact validator.

A fine partition removes a small set W of cut vertices from a k-vertex tree
so that the remaining components (shrubs) are small and each touches one
(end shrub) or two (internal shrub) cut vertices.  W splits into W_A and
W_B with all W_A-to-W_B distances odd, and internal shrubs anchor only into
W_A.  Components of the induced forest on W are knags.

The cutter picks cut vertices one component at a time: the true centroid
for components with at most one anchor, and the best-balancing vertex ON
the anchor-to-anchor path for two-anchor components, which is what keeps
every shrub's anchor count at two or below.  A cut re-floods only the
component it splits; the other components and their anchors stay as they
are.

A tree is bipartite, so dist(a, b) is odd exactly when a and b get
different colours in its one two-colouring.  Both the W_A/W_B split and the
validator's parity clause rest on that fact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from .report import Report


@dataclass
class Tree:
    """Rooted tree on 0..k-1, parent array with -1 at the root.  The array
    is read once, when the tree is made: do not change it afterwards."""

    parent: list

    @property
    def k(self) -> int:
        return len(self.parent)

    def __post_init__(self):
        """Check the parent array, and keep the neighbour lists and the
        two-colouring (depth parity) that the check's one traversal builds."""
        k = self.k
        adj = [[] for _ in range(k)]
        roots = []
        for v, p in enumerate(self.parent):
            if p == -1:
                roots.append(v)
            elif 0 <= p < k:
                adj[v].append(p)
                adj[p].append(v)
            else:
                raise ValueError("parent[%d] = %r is outside -1..%d" % (v, p, k - 1))
        if len(roots) != 1:
            raise ValueError("tree needs exactly one root")
        colour = [-1] * k
        colour[roots[0]] = 0
        order = [roots[0]]
        for v in order:  # grows while iterated
            for u in adj[v]:
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    order.append(u)
        if len(order) != k:
            raise ValueError("parent array is not a connected tree")
        self._adj, self._colour = adj, colour

    def adjacency(self):
        """Neighbour lists, built once with the tree; do not modify them."""
        return self._adj

    def edges(self):
        return [(min(v, p), max(v, p)) for v, p in enumerate(self.parent)
                if p >= 0]


def load_tree(text: str) -> Tree:
    """Format: 'n <k>' then one 'v parent' line per vertex (root parent -1).
    A malformed line raises ValueError naming its line number."""
    rows = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.startswith("#")]

    def num(i, x):
        try:
            return int(x)
        except ValueError:
            raise ValueError("line %d: bad integer %r" % (i, x)) from None

    if not rows or rows[0][1][0] != "n" or len(rows[0][1]) != 2:
        raise ValueError("line %d: expected 'n <k>' header" % (rows[0][0] if rows else 1))
    k = num(rows[0][0], rows[0][1][1])
    if k < 1:
        raise ValueError("line %d: tree order %d is not positive" % (rows[0][0], k))
    parent = [None] * k
    for i, fields in rows[1:]:
        if len(fields) != 2:
            raise ValueError("line %d: want 'v parent', got %r" % (i, " ".join(fields)))
        v, p = num(i, fields[0]), num(i, fields[1])
        if not 0 <= v < k:
            raise ValueError("line %d: vertex %d is outside 0..%d" % (i, v, k - 1))
        if not -1 <= p < k:
            raise ValueError("line %d: parent %d is outside -1..%d" % (i, p, k - 1))
        if parent[v] is not None:
            raise ValueError("line %d: vertex %d given twice" % (i, v))
        parent[v] = p
    if None in parent:
        raise ValueError("no parent line for vertex %d" % parent.index(None))
    return Tree(parent)


def dump_tree(t: Tree) -> str:
    lines = ["n %d" % t.k]
    lines += ["%d %d" % (v, p) for v, p in enumerate(t.parent)]
    return "\n".join(lines) + "\n"


@dataclass
class Shrub:
    vertices: frozenset
    anchors: frozenset     # cut vertices adjacent to the shrub

    @property
    def is_end(self) -> bool:
        return len(self.anchors) == 1


@dataclass
class FinePartition:
    tree: Tree
    W_A: frozenset
    W_B: frozenset
    shrubs: list
    knags: list            # components of the induced forest on W
    budget: int
    c: int                 # shrub-size constant: order <= ceil(c k / |W|)

    @property
    def W(self) -> frozenset:
        return self.W_A | self.W_B

    @property
    def t_int(self) -> int:
        return sum(len(s.vertices) for s in self.shrubs if not s.is_end)

    @property
    def t_end(self) -> int:
        return sum(len(s.vertices) for s in self.shrubs if s.is_end)


def _components_with_anchors(adj, removed):
    """Components of the tree minus removed, in order of least vertex, each
    with the removed vertices adjacent to it: one labelling flood, then one
    look at the neighbours of each removed vertex."""
    label = [-1] * len(adj)
    for w in removed:
        label[w] = -2
    comps = []
    for start in range(len(adj)):
        if label[start] != -1:
            continue
        label[start] = len(comps)
        comp = [start]
        for v in comp:  # grows while iterated
            for u in adj[v]:
                if label[u] == -1:
                    label[u] = len(comps)
                    comp.append(u)
        comps.append(comp)
    anchors = [set() for _ in comps]
    for w in removed:
        for u in adj[w]:
            if label[u] >= 0:
                anchors[label[u]].add(w)
    return [(frozenset(c), frozenset(a)) for c, a in zip(comps, anchors)]


def _tree_path(par, a, b):
    """Vertices on the tree path between a and b, read from a BFS parent
    array (-1 at its root) of a subtree holding both."""
    up = [a]
    while par[up[-1]] != -1:
        up.append(par[up[-1]])
    on_up = set(up)
    path = []
    while b not in on_up:
        path.append(b)
        b = par[b]
    return path + up[:up.index(b) + 1]


def fine_partition(t: Tree, target_w: int, c: int = 2) -> FinePartition:
    """Cut-vertex selection by component splitting, then A/B colouring.

    The largest component above ceil(c k / budget) is cut next (ties to the
    least vertex); once none is above it, the largest with two or more
    vertices takes one last cut.  Components with two anchors are split on
    the anchor path (keeps every shrub at <= 2 anchors); others at their
    centroid, the vertex whose largest remaining piece is least (ties to
    the lowest id).  W_B collects cut vertices only when the parity and
    internal-anchor constraints allow a two-colour split, else W_B is empty
    (which satisfies every clause vacuously).
    """
    if target_w > t.k:
        raise ValueError("cut budget exceeds tree order")
    if target_w < 1:
        raise ValueError("cut budget must be positive")
    if t.k < 2:
        raise ValueError("tree must have at least 2 vertices")
    adj, k = t.adjacency(), t.k
    limit = -(-c * k // target_w)  # ceil(c k / budget)
    label = [0] * k  # the component of each vertex, -1 once cut
    # BFS parent, subtree size, largest child subtree size and that child,
    # per vertex of the component being cut
    par, size, heavy, hchild = [0] * k, [0] * k, [0] * k, [0] * k
    # (-size, least vertex, label, {anchor: the one vertex it touches})
    heap = [(-k, 0, 0, {})]
    W = set()
    while len(W) < target_w and heap[0][0] < -1:
        neg, root, lab, anchors = heapq.heappop(heap)
        n = -neg
        par[root], size[root], heavy[root] = -1, 1, 0
        order = [root]
        for v in order:  # grows while iterated: parents precede children
            for u in adj[v]:
                if label[u] == lab and u != par[v]:
                    par[u], size[u], heavy[u] = v, 1, 0
                    order.append(u)
        for v in reversed(order[1:]):
            p = par[v]
            size[p] += size[v]
            if size[v] > heavy[p]:
                heavy[p], hchild[p] = size[v], v
        if len(anchors) == 2:
            cut = min(_tree_path(par, *anchors.values()),
                      key=lambda v: (max(heavy[v], n - size[v]), v))
        else:  # the centroid (one, or two adjacent): go down while a child
            # subtree holds over half of the component
            cut = root
            while 2 * heavy[cut] > n:
                cut = hchild[cut]
            if 2 * heavy[cut] == n:  # that child is the second centroid
                cut = min(cut, hchild[cut])
        W.add(cut)
        label[cut] = -1
        for u in adj[cut]:  # each child subtree of cut becomes a component
            if label[u] != lab or u == par[cut]:
                continue
            label[u] = fresh = len(W) * k + u  # unused by any other component
            piece = [u]
            for v in piece:
                for x in adj[v]:
                    if label[x] == lab:
                        label[x] = fresh
                        piece.append(x)
            touch = {a: x for a, x in anchors.items() if label[x] == fresh}
            touch[cut] = u
            heapq.heappush(heap, (-size[u], min(piece), fresh, touch))
        if cut != root:  # the rest above cut keeps the label and least vertex
            touch = {a: x for a, x in anchors.items() if label[x] == lab}
            touch[cut] = par[cut]
            heapq.heappush(heap, (size[cut] - n, root, lab, touch))
        if n <= limit:
            break

    colour = t._colour
    members = {}  # the heap holds every component: group vertices by label
    for v, lab in enumerate(label):
        members.setdefault(lab, []).append(v)
    comps = [(frozenset(members[lab]), frozenset(anchors))
             for _, _, lab, anchors in sorted(heap, key=lambda entry: entry[1])]
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


def _least(vertices) -> int:
    return min(vertices, default=-1)


def validate_fine_partition(fp: FinePartition) -> Report:
    """Exact check of every fine-partition clause: parity from the tree's
    two-colouring, shrubs from one labelling of T - W."""
    t = fp.tree
    adj = t.adjacency()
    rep = Report("fine partition")
    W = fp.W
    if not W <= frozenset(range(t.k)):
        raise ValueError("W contains non-tree vertices")
    rep.add("W_A and W_B disjoint", not (fp.W_A & fp.W_B))
    rep.add("|W| within budget", len(W) <= fp.budget, measured=len(W),
            needed=fp.budget)
    colour = t._colour
    rep.add("all W_A-W_B distances odd",
            not ({colour[a] for a in fp.W_A} & {colour[b] for b in fp.W_B}))

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
    # disjoint non-empty knags have distinct least vertices
    rep.add("knags are the components of T[W]",
            sorted(fp.knags, key=_least) == sorted(_knag_components(adj, W), key=_least))
    total = fp.t_int + fp.t_end + len(W)
    rep.add("t_int + t_end + |W| = k", total == t.k, measured=total, needed=t.k)
    return rep


def random_tree(k: int, seed: int) -> Tree:
    """Uniform-ish random recursive tree: parent of v drawn from [0, v)."""
    from .rng import make_rng

    rng = make_rng(seed)
    parent = [-1] + [rng.randrange(v) for v in range(1, k)]
    return Tree(parent)
