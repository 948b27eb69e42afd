"""Weighted interaction graphs, edge colorings into matchings, and the
decomposition of a weighted graph into threshold levels.

A proper edge coloring partitions the edge set into matchings; the least
number of matchings needed is the chromatic index, which by Vizing's
theorem is either the maximum degree or one more.  ``color_edges``, the
one coloring entry point, searches for a max-degree coloring by
backtracking that colors the most constrained edge next; deciding it is
NP-complete (Holyer 1981), so the search stops after a fixed node count.
Every other case gets the Misra-Gries coloring of ``edge_color_vizing``
(at most max degree + 1 classes), reported as exact when the graph is
overfull, the search finished without a coloring, or it has max degree
classes.  ``level_decompose`` slices a weighted graph at its distinct
edge weights, so that the weighted sum of per-level indices equals the
integral of the chromatic index over the threshold.  Each level inherits
the coloring of the level below it, dropping only the edges that left,
and keeps it when that is provably optimal; otherwise it calls
``color_edges``.  A caller that decomposes many graphs passes one
``known`` dict, owned by that call, so that each distinct level edge set
is colored once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadParams

EXACT_SEARCH_CAP = 64   # max edge count for the backtracking search
SEARCH_NODE_BUDGET = 20_000  # max nodes of that search before Misra-Gries takes over
WEIGHT_MERGE_TOL = 1e-12  # edge weights closer than this share one level

__all__ = [
    "EXACT_SEARCH_CAP",
    "SEARCH_NODE_BUDGET",
    "ChromaticIndexResult",
    "EdgeColoring",
    "Level",
    "LevelDecomposition",
    "WeightedGraph",
    "color_edges",
    "edge_color_vizing",
    "level_decompose",
    "threshold_subgraph",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 0..n-1 with strictly positive edge weights."""

    n_vertices: int
    edges: tuple = ()

    def __post_init__(self):
        if self.n_vertices < 1:
            raise BadParams("graph needs at least one vertex")
        norm = []
        seen = set()
        for e in self.edges:
            k, l, w = int(e[0]), int(e[1]), float(e[2])
            if not 0 <= k < l < self.n_vertices:
                raise BadParams(f"edge ({k},{l}) violates 0 <= k < l < {self.n_vertices}")
            if (k, l) in seen:
                raise BadParams(f"duplicate edge ({k},{l})")
            if not w > 0.0:
                raise BadParams(f"edge ({k},{l}) has non-positive weight {w}")
            seen.add((k, l))
            norm.append((k, l, w))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def pairs(self):
        return tuple((k, l) for k, l, _ in self.edges)

    def degrees(self) -> dict:
        """vertex -> degree for the touched vertices; no table is sized by ``n_vertices``."""
        deg = {}
        for k, l, _ in self.edges:
            deg[k] = deg.get(k, 0) + 1
            deg[l] = deg.get(l, 0) + 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees().values(), default=0)


@dataclass(frozen=True)
class EdgeColoring:
    """Partition of an edge set into matchings (the color classes)."""

    classes: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "classes",
            tuple(tuple(tuple(map(int, p)) for p in cls) for cls in self.classes),
        )

    def n_classes(self) -> int:
        return len(self.classes)

    def all_pairs(self):
        return tuple(p for cls in self.classes for p in cls)

    def is_valid_for(self, g: WeightedGraph) -> bool:
        """Every graph edge in exactly one class, classes vertex-disjoint."""
        covered = sorted(self.all_pairs())
        if covered != sorted(g.pairs):
            return False
        for cls in self.classes:
            touched = set()
            for k, l in cls:
                if k in touched or l in touched:
                    return False
                touched.update((k, l))
        return True


@dataclass(frozen=True)
class ChromaticIndexResult:
    index: int
    coloring: EdgeColoring
    exact: bool = True


@dataclass(frozen=True)
class Level:
    """One threshold slice: the subgraph of edges with weight >= threshold."""

    threshold: float
    chromatic_index: int
    coloring: EdgeColoring
    exact: bool


@dataclass(frozen=True)
class LevelDecomposition:
    levels: tuple = field(default=())

    def thresholds(self):
        return tuple(lv.threshold for lv in self.levels)

    def weighted_sum(self) -> float:
        """Sum of chromatic_index * (r_j - r_{j-1}) over levels, r_0 = 0."""
        total = 0.0
        prev = 0.0
        for lv in self.levels:
            total += lv.chromatic_index * (lv.threshold - prev)
            prev = lv.threshold
        return total


def threshold_subgraph(g: WeightedGraph, r: float) -> WeightedGraph:
    """Subgraph keeping exactly the edges with weight strictly above ``r``."""
    if r < 0:
        raise BadParams("threshold must be non-negative")
    return WeightedGraph(g.n_vertices, tuple(e for e in g.edges if e[2] > r))


def _search_edge_coloring(n_vertices, order, k, budget):
    """Backtracking search for a proper k-edge-coloring of ``order``.

    Each node colors the uncolored edge with the fewest free colors, ties
    going to the edge that comes first in ``order``, and fails at once when
    some edge has no free color left.  Colors are tried lowest-first and
    capped at one above the highest color used so far: every color above
    that is still unused everywhere, so trying one of them is enough, under
    any edge order.  Returns the color list (aligned with ``order``), False
    when no k-edge-coloring exists, or None after ``budget`` nodes.  The
    vertices of ``order`` are 0 .. ``n_vertices`` - 1.
    """
    m = len(order)
    colors = [-1] * m
    used = [0] * n_vertices
    full = (1 << k) - 1
    nodes = 0

    def rec(left, high):
        nonlocal nodes
        if not left:
            return True
        nodes += 1
        if nodes > budget:
            return None
        best, best_free = -1, k + 1
        for i in range(m):
            if colors[i] < 0:
                u, v = order[i]
                free = (full & ~(used[u] | used[v])).bit_count()
                if free < best_free:
                    if not free:
                        return False
                    best, best_free = i, free
        u, v = order[best]
        avail = full & ~(used[u] | used[v]) & ((2 << (high + 1)) - 1)
        while avail:
            bit = avail & -avail
            c = bit.bit_length() - 1
            colors[best] = c
            used[u] |= bit
            used[v] |= bit
            found = rec(left - 1, c if c > high else high)
            if found is not False:
                return found
            used[u] ^= bit
            used[v] ^= bit
            avail ^= bit
        colors[best] = -1
        return False

    found = rec(m, -1)
    return colors if found else found


def _coloring_from_assignment(order, colors, k):
    classes = [[] for _ in range(k)]
    for pair, c in zip(order, colors):
        classes[c].append(pair)
    return EdgeColoring(tuple(tuple(sorted(cls)) for cls in classes if cls))


def color_edges(g: WeightedGraph) -> ChromaticIndexResult:
    """A proper edge coloring, with ``exact`` set when its class count is optimal.

    Only a graph of at most ``EXACT_SEARCH_CAP`` edges that is not overfull
    is searched for a max-degree coloring (ties between equally constrained
    edges go to the larger degree sum, then the smaller pair), for at most
    ``SEARCH_NODE_BUDGET`` nodes.  Otherwise the Misra-Gries coloring is
    exact when the graph is overfull, when the search finished without a
    coloring (both prove max degree + 1), or when it has max degree classes.
    """
    pairs = g.pairs
    m = len(pairs)
    if m == 0:
        return ChromaticIndexResult(0, EdgeColoring(()), True)
    deg = g.degrees()
    delta = max(deg.values())
    # A color class is a matching, so it covers at most half the touched vertices.
    proven = m > delta * (len(deg) // 2)
    if not proven and m <= EXACT_SEARCH_CAP:
        order = sorted(pairs, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
        label = dict(zip(deg, range(len(deg))))  # the touched vertices, relabeled 0, 1, ...
        colors = _search_edge_coloring(len(label), [(label[u], label[v]) for u, v in order], delta, SEARCH_NODE_BUDGET)
        if colors:
            return ChromaticIndexResult(delta, _coloring_from_assignment(order, colors, delta), True)
        proven = colors is False
    coloring = edge_color_vizing(g)
    return ChromaticIndexResult(coloring.n_classes(), coloring, proven or coloring.n_classes() == delta)


def edge_color_vizing(g: WeightedGraph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 classes (Misra-Gries).

    Deterministic: edges are processed in lexicographic order and the
    lowest admissible color always wins.
    """
    pairs = sorted(g.pairs)
    if not pairs:
        return EdgeColoring(())
    n_colors = g.max_degree() + 1
    colour = {}
    incident = {v: {} for pair in pairs for v in pair}  # vertex -> {color: neighbor}

    def key(a, b):
        return (a, b) if a < b else (b, a)

    # assign colors an uncolored edge and unassign uncolors a colored one:
    # the path inversion uncolors every path edge before it recolors any,
    # and the fan rotation uncolors (u, fan[i+1]) before it colors (u, fan[i]).
    def assign(a, b, c):
        colour[key(a, b)] = c
        incident[a][c] = b
        incident[b][c] = a

    def unassign(a, b):
        old = colour.pop(key(a, b))
        del incident[a][old]
        del incident[b][old]

    def is_free(v, c):
        return c not in incident[v]

    def lowest_free(v):
        for c in range(1, n_colors + 1):
            if c not in incident[v]:
                return c
        raise RuntimeError("vertex saturated beyond max degree; this is a bug")

    for u, v in pairs:
        fan = [v]
        in_fan = {v}
        while True:
            nxt = None
            for c in sorted(incident[u]):
                w = incident[u][c]
                if w not in in_fan and is_free(fan[-1], c):
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)

        c = lowest_free(u)
        d = lowest_free(fan[-1])

        if not is_free(u, d):
            # invert the alternating d/c path that starts at u
            path = [u]
            want = d
            while want in incident[path[-1]]:
                nxt = incident[path[-1]][want]
                path.append(nxt)
                want = c if want == d else d
            path_edges = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
            olds = [colour[key(a, b)] for a, b in path_edges]
            for a, b in path_edges:
                unassign(a, b)
            for (a, b), old in zip(path_edges, olds):
                assign(a, b, c if old == d else d)

        # first fan vertex with d free whose prefix is still a fan
        w_idx = None
        for idx in range(len(fan)):
            if idx > 0:
                cc = colour.get(key(u, fan[idx]))
                if cc is None or not is_free(fan[idx - 1], cc):
                    break
            if is_free(fan[idx], d):
                w_idx = idx
                break
        if w_idx is None:  # excluded by the Misra-Gries invariant
            raise RuntimeError("fan rotation target not found; this is a bug")

        for i in range(w_idx):
            moved = colour[key(u, fan[i + 1])]
            unassign(u, fan[i + 1])
            assign(u, fan[i], moved)
        assign(u, fan[w_idx], d)

    classes = [[] for _ in range(n_colors)]
    for (a, b), c in colour.items():
        classes[c - 1].append((a, b))
    return EdgeColoring(tuple(tuple(sorted(cls)) for cls in classes if cls))


def level_decompose(g: WeightedGraph, known: dict | None = None) -> LevelDecomposition:
    """Slice ``g`` at its distinct edge weights, ascending.

    Level j is the subgraph of edges with weight >= r_j.  Weights within
    ``WEIGHT_MERGE_TOL`` of each other share a level (threshold = their
    maximum).  Level j+1 is level j minus the edges of weight r_j, so it
    first inherits level j's coloring with those edges dropped: only the
    classes that held them are rebuilt, class order and the order within
    each class are kept, and classes left empty go.  When the classes left
    number the new max degree, that coloring is optimal (chi' >= max
    degree) and is taken as exact, whether or not level j's was.
    Otherwise the level is colored by :func:`color_edges`.

    ``known``, when given, maps the frozenset of a level's pairs to the
    :func:`color_edges` result for that edge set; levels found there are
    not searched again, and levels searched here are added.  The result
    depends only on the edge set, so a caller that decomposes many graphs
    (the samples of one integral or one compilation) passes one dict to all
    of them and gets the same levels as without it.  Only search results
    go in, never inherited colorings.
    """
    if not g.edges:
        return LevelDecomposition(())
    ordered = sorted(g.edges, key=lambda e: e[2])
    clusters = [[ordered[0]]]
    for e in ordered[1:]:
        if e[2] - clusters[-1][-1][2] < WEIGHT_MERGE_TOL:
            clusters[-1].append(e)
        else:
            clusters.append([e])

    deg = g.degrees()
    remaining = set(g.pairs)
    classes = []  # the last level's classes; a class emptied by inheritance stays as ()
    holder = {}  # pair -> its index in classes
    levels = []
    for j, cluster in enumerate(clusters):
        threshold = max(e[2] for e in cluster)
        inherited = None
        if levels:
            gone = set()
            for k, l, _ in clusters[j - 1]:
                deg[k] -= 1
                deg[l] -= 1
                gone.add((k, l))
            remaining -= gone
            for c in {holder.pop(pair) for pair in gone}:
                classes[c] = tuple(pair for pair in classes[c] if pair not in gone)
            # Classes of a normalized coloring are normalized, so __post_init__ is skipped.
            inherited = object.__new__(EdgeColoring)
            object.__setattr__(inherited, "classes", tuple(cls for cls in classes if cls))
            if inherited.n_classes() == max(deg.values()):
                levels.append(Level(threshold, inherited.n_classes(), inherited, True))
                continue
        key = frozenset(remaining)
        res = None if known is None else known.get(key)
        if res is None:
            # The level's edges are edges of g, valid already, so __post_init__ is skipped.
            sub = object.__new__(WeightedGraph)
            object.__setattr__(sub, "n_vertices", g.n_vertices)
            object.__setattr__(sub, "edges", tuple(e for cl in clusters[j:] for e in cl))
            res = color_edges(sub)
            if known is not None:
                known[key] = res
        levels.append(Level(threshold, res.index, res.coloring, res.exact))
        classes = list(res.coloring.classes)
        holder = {pair: c for c, cls in enumerate(classes) for pair in cls}
    return LevelDecomposition(tuple(levels))
