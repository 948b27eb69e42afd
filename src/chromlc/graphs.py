"""Edge colorings of interaction graphs into matchings, and the
decomposition of a weighted interaction graph into threshold levels.

A proper edge coloring partitions an edge set into matchings; the least
number of matchings needed is the chromatic index, which by Vizing's
theorem is either the maximum degree or one more.  A coloring depends on
which pairs interact and never on the weights, so ``color_edges``, the one
coloring entry point, takes the pairs alone.  It returns an
``EdgeColoring``, the one coloring record: the classes and whether their
count is provably optimal.  The chromatic index is the class count,
``len(coloring.classes)``, and is stored nowhere else.  ``color_edges``
searches for a max-degree coloring by backtracking that colors the most
constrained edge next, scanning only the edges still uncolored; deciding
it is NP-complete (Holyer 1981), so the search stops after a fixed node
count.  A complete graph on an even number of vertices with more edges
than the search takes gets the round-robin 1-factorization, max degree
classes.  Every other case gets the Misra-Gries coloring of
``edge_color_vizing`` (at most max degree + 1 classes), reported as exact
when the edge set is overfull, the search finished without a coloring, or
it has max degree classes.  ``level_decompose`` takes a graph as its pairs
and one positive weight per pair (a snapshot's pairs and norms) and slices
it at its distinct weights, so that the weighted sum of per-level indices
equals the integral of the chromatic index over the threshold.  It sorts
the edges by (weight, pair) once; each level is a suffix of that order and
each weight cluster an index range of it.  Each level inherits the
coloring of the level below it, dropping only the edges that left, and
keeps it when that is provably optimal; otherwise it colors the level's
pairs as ``color_edges`` does, handing over the degree table it already
holds.  The sweep keeps the max degree in a histogram of vertex degrees
and the inherited class count in a counter, so deciding whether a level
keeps its coloring costs a constant amount per dropped edge, not a pass
over all vertices.  A caller that decomposes many graphs passes one
``known`` dict, owned by that call, so that each distinct level edge set is
colored once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

EXACT_SEARCH_CAP = 64   # max edge count for the backtracking search
SEARCH_NODE_BUDGET = 20_000  # max nodes of that search before Misra-Gries takes over
WEIGHT_MERGE_TOL = 1e-12  # edge weights closer than this share one level

__all__ = [
    "EXACT_SEARCH_CAP",
    "SEARCH_NODE_BUDGET",
    "EdgeColoring",
    "Level",
    "LevelDecomposition",
    "color_edges",
    "edge_color_vizing",
    "level_decompose",
]


def _degrees(pairs) -> dict:
    """vertex -> degree for the vertices ``pairs`` touch; no table is sized by the register."""
    deg = {}
    for k, l in pairs:
        deg[k] = deg.get(k, 0) + 1
        deg[l] = deg.get(l, 0) + 1
    return deg


class EdgeColoring(NamedTuple):
    """A partition of an edge set into matchings, the color ``classes`` (each a
    tuple of pairs), and ``exact``, set when no coloring has fewer classes."""

    classes: tuple
    exact: bool

    def is_valid_for(self, pairs) -> bool:
        """Every one of ``pairs`` in exactly one class, classes vertex-disjoint."""
        if sorted(p for cls in self.classes for p in cls) != sorted(pairs):
            return False
        for cls in self.classes:
            touched = set()
            for k, l in cls:
                if k in touched or l in touched:
                    return False
                touched.update((k, l))
        return True


class Level(NamedTuple):
    """One threshold slice: the coloring of the edges with weight >= threshold."""

    threshold: float
    coloring: EdgeColoring

    @property
    def exact(self) -> bool:
        """The coloring's flag: no coloring of the level has fewer classes.
        Its only reader is the ``level_decompose`` hook of ``perfbench/run.py``;
        the package reads ``coloring.exact``."""
        return self.coloring.exact


@dataclass(frozen=True)
class LevelDecomposition:
    """The levels of a weighted graph, thresholds ascending.  A level's
    chromatic index, or an upper bound on it when the level is not exact,
    is the class count of its coloring."""

    levels: tuple = field(default=())

    def thresholds(self):
        return tuple(lv.threshold for lv in self.levels)

    def weighted_sum(self) -> float:
        """Sum of class count * (r_j - r_{j-1}) over levels, r_0 = 0."""
        total = 0.0
        prev = 0.0
        for lv in self.levels:
            total += len(lv.coloring.classes) * (lv.threshold - prev)
            prev = lv.threshold
        return total


def _search_edge_coloring(n_vertices, order, k, budget):
    """Backtracking search for a proper k-edge-coloring of ``order``.

    Each node colors the uncolored edge with the fewest free colors (the
    most colors taken at its two ends), ties going to the edge that comes
    first in ``order``, and fails at once when some edge has no free color
    left.  Only the uncolored edges are scanned: ``uncolored`` holds them as
    ``(u, v, i)`` triples, ``i`` the edge's index in ``order``, in ``order``
    order, so the scan unpacks each triple once; the chosen edge leaves the
    list while it is colored and goes back to its place on backtrack.
    Colors are tried lowest-first and capped at one above the highest color
    used so far: every color above that is still unused everywhere, so
    trying one of them is enough, under any edge order.  Returns the color
    list (aligned with ``order``), False when no k-edge-coloring exists, or
    None after ``budget`` nodes.  The vertices of ``order`` are
    0 .. ``n_vertices`` - 1.
    """
    colors = [-1] * len(order)
    uncolored = [(u, v, i) for i, (u, v) in enumerate(order)]
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
        for edge in uncolored:
            u, v, _ = edge
            busy = (used[u] | used[v]).bit_count()
            if busy > best_busy:
                if busy == k:
                    return False
                best, best_busy = edge, busy
        at = uncolored.index(best)
        del uncolored[at]
        u, v, i = best
        avail = full & ~(used[u] | used[v]) & ((2 << (high + 1)) - 1)
        while avail:
            bit = avail & -avail
            c = bit.bit_length() - 1
            colors[i] = c
            used[u] |= bit
            used[v] |= bit
            found = rec(c if c > high else high)
            if found is not False:
                return found
            used[u] ^= bit
            used[v] ^= bit
            avail ^= bit
        uncolored.insert(at, best)
        return False

    found = rec(-1)
    return colors if found else found


def _classes_from_assignment(order, colors, k) -> tuple:
    classes = [[] for _ in range(k)]
    for pair, c in zip(order, colors):
        classes[c].append(pair)
    return tuple(tuple(sorted(cls)) for cls in classes if cls)


def _round_robin(vertices) -> tuple:
    """The circle-method 1-factorization of the complete graph on the even
    number n of sorted ``vertices``: n - 1 perfect matchings.  In round r
    the last vertex meets ring vertex r, and ring vertices r + i and r - i
    (mod n - 1) meet for i = 1 .. n/2 - 1; every pair meets in one round."""
    *ring, hub = vertices
    s = len(ring)
    classes = []
    for r in range(s):
        cls = [(ring[r], hub)]
        for i in range(1, s // 2 + 1):
            a, b = (r + i) % s, (r - i) % s
            cls.append((ring[min(a, b)], ring[max(a, b)]))
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def color_edges(pairs) -> EdgeColoring:
    """A proper edge coloring of ``pairs``, distinct ``(k, l)`` pairs with
    k < l in any order, with ``exact`` set when its class count is optimal.

    Only an edge set of at most ``EXACT_SEARCH_CAP`` pairs that is not
    overfull is searched for a max-degree coloring (ties between equally
    constrained edges go to the larger degree sum, then the smaller pair),
    for at most ``SEARCH_NODE_BUDGET`` nodes.  A larger complete graph that
    is not overfull (an even vertex count) gets the round-robin
    1-factorization, max degree classes, exact.  Otherwise the Misra-Gries
    coloring is exact when the edge set is overfull, when the search
    finished without a coloring (both prove max degree + 1), or when it has
    max degree classes.  The result depends on the set of pairs alone.
    """
    return _color_edges(pairs, _degrees(pairs))


def _color_edges(pairs, deg) -> EdgeColoring:
    """:func:`color_edges` of ``pairs`` with their degree table ``deg``
    (vertex -> degree, every touched vertex and no other) given."""
    if not deg:
        return EdgeColoring((), True)
    m = len(pairs)
    n = len(deg)
    delta = max(deg.values())
    # A color class is a matching, so it covers at most half the touched vertices.
    proven = m > delta * (n // 2)
    if not proven and m <= EXACT_SEARCH_CAP:
        order = sorted(pairs)
        order.sort(key=lambda e: -deg[e[0]] - deg[e[1]])  # stable: ties stay in pair order
        label = dict(zip(deg, range(n)))  # the touched vertices, relabeled 0, 1, ...
        colors = _search_edge_coloring(n, [(label[u], label[v]) for u, v in order], delta, SEARCH_NODE_BUDGET)
        if colors:
            return EdgeColoring(_classes_from_assignment(order, colors, delta), True)
        proven = colors is False
    elif not proven and 2 * m == n * (n - 1):
        # A complete graph; not overfull, so on an even vertex count: n - 1 = max degree classes.
        return EdgeColoring(_round_robin(sorted(deg)), True)
    classes = edge_color_vizing(pairs)
    return EdgeColoring(classes, proven or len(classes) == delta)


def edge_color_vizing(pairs) -> tuple:
    """The classes of a proper edge coloring of ``pairs`` with at most max
    degree + 1 of them (Misra-Gries), in color order.

    Deterministic: edges are processed in lexicographic order and the
    lowest admissible color always wins.  ``incident`` is the only color
    table: an edge's color is a key in the rows of both its ends.
    """
    pairs = sorted(pairs)
    colors = range(1, max(_degrees(pairs).values(), default=0) + 2)
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
    return tuple(tuple(sorted(cls)) for cls in classes if cls)


def level_decompose(pairs, weights, known: dict) -> LevelDecomposition:
    """Slice the graph of ``pairs``, distinct ``(k, l)`` pairs with k < l,
    at its distinct edge weights, ascending; ``weights[i]`` > 0 is the
    weight of ``pairs[i]``, and the thresholds are Python floats.

    Level j is the subgraph of edges with weight >= r_j.  Weights within
    ``WEIGHT_MERGE_TOL`` of each other share a level (threshold = their
    maximum); the edges, sorted by (weight, pair), form one list, each
    cluster of weights an index range of it and each level a suffix.
    Level j+1 is level j minus the edges of weight r_j, so it
    first inherits level j's coloring with those edges dropped: each leaves
    its class by position (the class is sliced around it), class order and
    the order within each class are kept, and classes left empty go.  When the classes left
    number the new max degree, that coloring is optimal (chi' >= max
    degree) and is taken as exact, whether or not level j's was.
    Otherwise the level's pairs are colored as :func:`color_edges` colors
    them, from the sweep's own degree table (its zero entries dropped),
    with no second degree count.  Both sides of
    that test are updated as edges leave, at a constant cost per edge: the
    max degree through a histogram of vertex degrees, the class count
    through a count of non-empty classes.  The inherited coloring is built
    only for a level that keeps it.

    ``known`` maps the frozenset of a level's pairs to its
    :class:`EdgeColoring`, the :func:`color_edges` result for that edge set,
    which is also what the level is colored from; levels found there are
    not searched again, and levels searched here are added.  The result
    depends only on the weighted edge set, so a caller that decomposes many
    graphs (the samples of one integral or one compilation) passes one dict
    to all of them and gets the same levels as with a fresh dict for each.
    Only search results go in, never inherited colorings.
    """
    ordered = sorted(zip(map(float, weights), pairs, strict=True))
    if not ordered:
        return LevelDecomposition(())
    ws = [w for w, _ in ordered]
    edges = tuple([pair for _, pair in ordered])
    # cluster j is edges[starts[j]:starts[j + 1]]; a gap of WEIGHT_MERGE_TOL or more starts one
    starts = [0] + [i for i in range(1, len(ws)) if not ws[i] - ws[i - 1] < WEIGHT_MERGE_TOL]
    ends = starts[1:] + [len(edges)]

    deg = _degrees(pairs)
    delta = max(deg.values())
    hist = [0] * (delta + 1)  # hist[d]: the number of touched vertices of degree d
    for d in deg.values():
        hist[d] += 1
    classes = []  # the last level's classes; a class emptied by inheritance stays as ()
    live = 0  # how many entries of classes are non-empty
    holder = {}  # pair -> its index in classes
    levels = []
    # the first level drops no edge and inherits no class (live is 0), so it is colored
    for prev, start, end in zip([0, *starts], starts, ends):
        threshold = ws[end - 1]
        for pair in edges[prev:start]:  # the edges of the cluster below, dropped
            k, l = pair
            d = deg[k]
            hist[d] -= 1
            hist[d - 1] += 1
            deg[k] = d - 1
            d = deg[l]
            hist[d] -= 1
            hist[d - 1] += 1
            deg[l] = d - 1
            c = holder[pair]
            cls = classes[c]
            at = cls.index(pair)
            cls = classes[c] = cls[:at] + cls[at + 1 :]
            if not cls:
                live -= 1
        while not hist[delta]:
            delta -= 1
        if live == delta:
            coloring = tuple.__new__(EdgeColoring, (tuple(filter(None, classes)), True))
            levels.append(tuple.__new__(Level, (threshold, coloring)))
            continue
        key = frozenset(edges[start:])
        coloring = known.get(key)
        if coloring is None:
            coloring = known[key] = _color_edges(key, {v: d for v, d in deg.items() if d})
        levels.append(tuple.__new__(Level, (threshold, coloring)))
        classes = list(coloring.classes)
        live = len(classes)
        holder = {pair: c for c, cls in enumerate(classes) for pair in cls}
    return LevelDecomposition(tuple(levels))
