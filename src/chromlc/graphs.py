"""Weighted interaction graphs, edge colorings into matchings, and the
decomposition of a weighted graph into threshold levels.

A proper edge coloring partitions the edge set into matchings; the least
number of matchings needed is the chromatic index, which by Vizing's
theorem is either the maximum degree or one more.  ``color_edges``, the
one coloring entry point, searches for a max-degree coloring by
backtracking that colors the most constrained edge next, scanning only
the edges still uncolored; deciding it is NP-complete (Holyer 1981), so
the search stops after a fixed node count.
Every other case gets the Misra-Gries coloring of ``edge_color_vizing``
(at most max degree + 1 classes), reported as exact when the graph is
overfull, the search finished without a coloring, or it has max degree
classes.  ``level_decompose`` slices a weighted graph at its distinct
edge weights, so that the weighted sum of per-level indices equals the
integral of the chromatic index over the threshold.  Each level inherits
the coloring of the level below it, dropping only the edges that left,
and keeps it when that is provably optimal; otherwise it calls
``color_edges``.  The sweep keeps the max degree in a histogram of vertex
degrees and the inherited class count in a counter, so deciding whether a
level keeps its coloring costs a constant amount per dropped edge, not a
pass over all vertices.  A caller that decomposes many graphs passes one
``known`` dict, owned by that call, so that each distinct level edge set
is colored once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


class Level(NamedTuple):
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


def _search_edge_coloring(n_vertices, order, k, budget):
    """Backtracking search for a proper k-edge-coloring of ``order``.

    Each node colors the uncolored edge with the fewest free colors (the
    most colors taken at its two ends), ties going to the edge that comes
    first in ``order``, and fails at once when some edge has no free color
    left.  Only the uncolored edges are scanned: ``uncolored`` lists their
    indices in ``order`` order, and the chosen edge leaves it while it is
    colored and goes back to its place on backtrack.  Colors are tried
    lowest-first and capped at one above the highest color used so far:
    every color above that is still unused everywhere, so trying one of
    them is enough, under any edge order.  Returns the color list (aligned
    with ``order``), False when no k-edge-coloring exists, or None after
    ``budget`` nodes.  The vertices of ``order`` are 0 .. ``n_vertices`` - 1.
    """
    colors = [-1] * len(order)
    uncolored = list(range(len(order)))
    used = [0] * n_vertices
    full = (1 << k) - 1
    nodes = 0

    def rec(high):
        nonlocal nodes
        if not uncolored:
            return True
        nodes += 1
        if nodes > budget:
            return None
        best_busy = -1
        for at, i in enumerate(uncolored):
            u, v = order[i]
            busy = (used[u] | used[v]).bit_count()
            if busy > best_busy:
                if busy == k:
                    return False
                best_at, best_busy = at, busy
        best = uncolored.pop(best_at)
        u, v = order[best]
        avail = full & ~(used[u] | used[v]) & ((2 << (high + 1)) - 1)
        while avail:
            bit = avail & -avail
            c = bit.bit_length() - 1
            colors[best] = c
            used[u] |= bit
            used[v] |= bit
            found = rec(c if c > high else high)
            if found is not False:
                return found
            used[u] ^= bit
            used[v] ^= bit
            avail ^= bit
        uncolored.insert(best_at, best)
        return False

    found = rec(-1)
    return colors if found else found


def _trusted(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, already normalized: __post_init__ is skipped."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _coloring_from_assignment(order, colors, k):
    classes = [[] for _ in range(k)]
    for pair, c in zip(order, colors):
        classes[c].append(pair)
    return _trusted(EdgeColoring, classes=tuple(tuple(sorted(cls)) for cls in classes if cls))


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
    lowest admissible color always wins.  ``incident`` is the only color
    table: an edge's color is a key in the rows of both its ends.
    """
    pairs = sorted(g.pairs)
    if not pairs:
        return EdgeColoring(())
    colors = range(1, g.max_degree() + 2)
    incident = {v: {} for pair in pairs for v in pair}  # vertex -> {color: neighbor}

    for u, v in pairs:
        fan = [v]
        in_fan = {v}
        while True:
            nxt = None
            for c in sorted(incident[u]):
                w = incident[u][c]
                if w not in in_fan and c not in incident[fan[-1]]:
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)

        # Every next(...) has a candidate.  A vertex has at most max degree
        # colored edges, so one of the max degree + 1 colors is free, and
        # after the d/c path is inverted the first fan vertex with d free ends
        # a prefix that is still a fan (Misra & Gries 1992).  Were either ever
        # false, next(...) would raise rather than color an edge wrongly.
        c = next(x for x in colors if x not in incident[u])
        d = next(x for x in colors if x not in incident[fan[-1]])

        if d in incident[u]:
            # invert the alternating d/c path that starts at u: swap c and d in each row on it
            path = [u]
            want = d
            while want in incident[path[-1]]:
                path.append(incident[path[-1]][want])
                want = c if want == d else d
            for a in path:
                row = incident[a]
                at_c, at_d = row.pop(c, None), row.pop(d, None)
                if at_c is not None:
                    row[d] = at_c
                if at_d is not None:
                    row[c] = at_d

        w_idx = next(i for i, w in enumerate(fan) if d not in incident[w])
        if w_idx:
            # rotate the fan: (u, fan[i]) takes the color of (u, fan[i + 1])
            color_of = {b: x for x, b in incident[u].items()}
            for i in range(w_idx):
                moved = color_of[fan[i + 1]]
                del incident[fan[i + 1]][moved]
                incident[u][moved] = fan[i]
                incident[fan[i]][moved] = u
        incident[u][d] = fan[w_idx]
        incident[fan[w_idx]][d] = u

    classes = [[] for _ in colors]
    for a, row in incident.items():
        for x, b in row.items():
            if a < b:
                classes[x - 1].append((a, b))
    return EdgeColoring(tuple(tuple(sorted(cls)) for cls in classes if cls))


def level_decompose(g: WeightedGraph, known: dict) -> LevelDecomposition:
    """Slice ``g`` at its distinct edge weights, ascending.

    Level j is the subgraph of edges with weight >= r_j.  Weights within
    ``WEIGHT_MERGE_TOL`` of each other share a level (threshold = their
    maximum).  Level j+1 is level j minus the edges of weight r_j, so it
    first inherits level j's coloring with those edges dropped: only the
    classes that held them are rebuilt, class order and the order within
    each class are kept, and classes left empty go.  When the classes left
    number the new max degree, that coloring is optimal (chi' >= max
    degree) and is taken as exact, whether or not level j's was.
    Otherwise the level is colored by :func:`color_edges`.  Both sides of
    that test are updated as edges leave, at a constant cost per edge: the
    max degree through a histogram of vertex degrees, the class count
    through a count of non-empty classes.  The inherited coloring is built
    only for a level that keeps it.

    ``known`` maps the frozenset of a level's pairs to the
    :func:`color_edges` result for that edge set; levels found there are
    not searched again, and levels searched here are added.  The result
    depends only on the edge set, so a caller that decomposes many graphs
    (the samples of one integral or one compilation) passes one dict to all
    of them and gets the same levels as with a fresh dict for each.  Only
    search results go in, never inherited colorings.
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
    delta = max(deg.values())
    hist = [0] * (delta + 1)  # hist[d]: the number of touched vertices of degree d
    for d in deg.values():
        hist[d] += 1
    remaining = set(g.pairs)
    classes = []  # the last level's classes; a class emptied by inheritance stays as ()
    live = 0  # how many entries of classes are non-empty
    holder = {}  # pair -> its index in classes
    levels = []
    for j, cluster in enumerate(clusters):
        threshold = cluster[-1][2]
        if levels:
            gone = []
            for k, l, _ in clusters[j - 1]:
                for v in (k, l):
                    hist[deg[v]] -= 1
                    deg[v] -= 1
                    hist[deg[v]] += 1
                gone.append((k, l))
            while not hist[delta]:
                delta -= 1
            remaining.difference_update(gone)
            for c in {holder.pop(pair) for pair in gone}:
                classes[c] = tuple(pair for pair in classes[c] if pair not in gone)
                if not classes[c]:
                    live -= 1
            if live == delta:
                inherited = _trusted(EdgeColoring, classes=tuple(cls for cls in classes if cls))
                levels.append(Level(threshold, live, inherited, True))
                continue
        key = frozenset(remaining)
        res = known.get(key)
        if res is None:
            # The level's edges are edges of g, valid already.
            sub = _trusted(WeightedGraph, n_vertices=g.n_vertices, edges=tuple(e for cl in clusters[j:] for e in cl))
            res = known[key] = color_edges(sub)
        levels.append(Level(threshold, res.index, res.coloring, res.exact))
        classes = list(res.coloring.classes)
        live = len(classes)
        holder = {pair: c for c, cls in enumerate(classes) for pair in cls}
    return LevelDecomposition(tuple(levels))
