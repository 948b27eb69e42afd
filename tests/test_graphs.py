import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromlc import graphs
from chromlc.graphs import (
    EXACT_SEARCH_CAP,
    EdgeColoring,
    color_edges,
    edge_color_vizing,
    level_decompose,
)

from helpers import (
    full_scan_search_edge_coloring,
    heavier_than,
    max_degree,
    oracle_chromatic_index,
    record_searches,
    recounting_level_decompose,
    restricting_level_decompose,
    wall_clock_bound,
)


def complete_graph(n):
    """The pairs of the complete graph on ``n`` vertices."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def exact_index(pairs):
    """The class count of ``color_edges(pairs)``, checked to be the chromatic index and not a bound."""
    res = color_edges(pairs)
    assert res.exact
    return len(res.classes)


def indices(ld):
    """The class count of each level of ``ld``."""
    return [len(lv.coloring.classes) for lv in ld.levels]


def slice_at(pairs, weights, r):
    """The ``pairs`` of weight at least ``r``: the level at threshold ``r``."""
    return tuple(pair for pair, w in zip(pairs, weights) if w >= r)


def random_weighted_pairs(rng, n, p, low, high):
    """(pairs, weights): each pair on ``n`` vertices kept with probability
    ``p``, with a weight drawn uniformly from [low, high)."""
    pairs, weights = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                pairs.append((i, j))
                weights.append(float(rng.uniform(low, high)))
    return tuple(pairs), tuple(weights)


def fallback_k8():
    """(pairs, weights): K8 as K7 (weight 2) plus a vertex joined by weight-1 edges."""
    heavy = complete_graph(7)
    light = tuple((i, 7) for i in range(7))
    return heavy + light, (2.0,) * len(heavy) + (1.0,) * len(light)


@st.composite
def small_graphs(draw, max_vertices, weights=(1.0,)):
    """(n, pairs, weights): n <= max_vertices, each pair present or not,
    its weight drawn from ``weights``."""
    n = draw(st.integers(1, max_vertices))
    pairs, drawn = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
                drawn.append(draw(st.sampled_from(weights)))
    return n, tuple(pairs), tuple(drawn)


@st.composite
def graph_sequences(draw):
    """(pairs, weights) graphs on one vertex set that reuse a few edge sets,
    each time with freshly drawn weights, so level edge sets recur."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge_sets = draw(st.lists(st.lists(st.sampled_from(pairs), unique=True), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        chosen = draw(st.sampled_from(edge_sets))
        weights = st.sampled_from((0.5, 1.0, 1.5, 2.0))
        weights = draw(st.lists(weights, min_size=len(chosen), max_size=len(chosen)))
        out.append((tuple(chosen), tuple(weights)))
    return out


@st.composite
def search_orders(draw):
    """(n, order): 1 to 24 distinct edges on n <= 9 vertices, in a drawn order."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=24))


def petersen_copies(copies, rng):
    """Disjoint Petersen graphs (cubic, class 2) under a random vertex relabeling."""
    edges = []
    for c in range(copies):
        base = 10 * c
        for i in range(5):
            edges.append((base + i, base + (i + 1) % 5))  # outer cycle
            edges.append((base + i, base + 5 + i))  # spoke
            edges.append((base + 5 + i, base + 5 + (i + 2) % 5))  # inner pentagram
    perm = rng.permutation(10 * copies)
    relabeled = (tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in edges)
    return tuple(relabeled)


def test_chromatic_index_examples():
    assert exact_index(((0, 1), (2, 3), (4, 5))) == 1  # a matching
    assert exact_index(tuple((i, i + 1) for i in range(4))) == 2  # a path
    assert exact_index(complete_graph(4)) == 3
    assert exact_index(()) == 0


def test_chromatic_index_witness_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5)
        res = color_edges(pairs)
        assert res.exact
        assert res.is_valid_for(pairs)
        assert max_degree(pairs) <= len(res.classes) <= max_degree(pairs) + 1


def test_chromatic_index_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(80):
        n = int(rng.integers(2, 7))
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6)
        assert exact_index(pairs) == oracle_chromatic_index(pairs, n)


@settings(max_examples=150, deadline=None)
@given(small_graphs(7))
def test_chromatic_index_matches_oracle_property(graph):
    n, pairs, _ = graph
    res = color_edges(pairs)
    assert res.exact
    assert len(res.classes) == oracle_chromatic_index(pairs, n)
    assert res.is_valid_for(pairs)


def test_shuffled_petersen_copies_finish_fast():
    # four disjoint Petersen graphs: 60 edges, chromatic index 4 = max degree + 1;
    # the timer turns a search that would run for minutes into a failure
    rng = np.random.default_rng(17)
    for _ in range(10):
        pairs = petersen_copies(4, rng)
        assert len(pairs) == 60 <= EXACT_SEARCH_CAP
        with wall_clock_bound(2.0):
            res = color_edges(pairs)
        assert res.exact
        assert len(res.classes) == 4
        assert res.is_valid_for(pairs)


@pytest.mark.parametrize(
    "n, missing, index",
    [
        (9, (), 9),  # overfull: Misra-Gries has the proven max degree + 1 classes
        (11, (), 11),
        # not overfull; the max-degree search would take millions of nodes, so it
        # stops at its budget and the Misra-Gries coloring has max degree classes
        (11, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)), 10),
    ],
)
def test_dense_colorings_finish_fast(n, missing, index):
    pairs = tuple(pair for pair in complete_graph(n) if pair not in missing)
    with wall_clock_bound(2.0):
        res = color_edges(pairs)
    assert (len(res.classes), res.exact) == (index, True)
    assert res.is_valid_for(pairs)


def test_spent_search_budget_is_reported(monkeypatch):
    # K8 is 7-colorable, but a search stopped at once leaves Misra-Gries's 8 classes
    monkeypatch.setattr(graphs, "SEARCH_NODE_BUDGET", 1)
    pairs = complete_graph(8)
    res = color_edges(pairs)
    assert (len(res.classes), res.exact) == (8, False)
    assert res.is_valid_for(pairs)


@settings(max_examples=200, deadline=None)
@given(search_orders(), st.integers(1, 200))
def test_search_matches_the_full_scan(instance, budget):
    # same node order and node count: the same colors, False, or None at every budget
    n, order = instance
    delta = max_degree(order)
    found = graphs._search_edge_coloring(n, order, delta, budget)
    assert found == full_scan_search_edge_coloring(n, order, delta, budget)
    if found is not None:  # the least budget that finishes is the same too
        least = next(b for b in range(1, budget + 1) if full_scan_search_edge_coloring(n, order, delta, b) is not None)
        assert graphs._search_edge_coloring(n, order, delta, least - 1) is None
        assert graphs._search_edge_coloring(n, order, delta, least) == found


def test_color_edges_falls_back_beyond_cap():
    pairs = complete_graph(12)  # 66 edges
    res = color_edges(pairs)
    assert not res.exact
    assert res.is_valid_for(pairs)
    assert len(res.classes) in (11, 12)
    assert color_edges(pairs[::-1]) == res


def test_class_two_graphs():
    # odd cycles and odd complete graphs need max degree + 1 colors
    c5 = tuple((i, i + 1) for i in range(4)) + ((0, 4),)
    assert exact_index(c5) == 3
    assert exact_index(complete_graph(5)) == 5
    assert exact_index(complete_graph(6)) == 5
    assert exact_index(complete_graph(7)) == 7


def test_vizing_trivials():
    assert edge_color_vizing(()) == ()
    star = tuple((0, i) for i in range(1, 6))
    classes = edge_color_vizing(star)
    assert len(classes) == 5
    assert EdgeColoring(classes, True).is_valid_for(star)


def test_vizing_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 16))
        p = float(rng.uniform(0.05, 0.95))
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
        classes = edge_color_vizing(pairs)
        assert EdgeColoring(classes, False).is_valid_for(pairs)
        assert max_degree(pairs) <= len(classes) <= max_degree(pairs) + 1


def test_level_decompose_single_level():
    ld = level_decompose(((0, 1), (1, 2), (2, 3)), (0.7, 0.7, 0.7), {})
    assert len(ld.levels) == 1
    assert ld.levels[0].threshold == 0.7
    assert indices(ld) == [2]
    assert abs(ld.weighted_sum() - 1.4) < 1e-12


def test_level_decompose_weighted_chain():
    # chain 0-1-2-3 with weights 1,2,3: levels (1,2), (2,2), (3,1), sum 5
    ld = level_decompose(((0, 1), (1, 2), (2, 3)), (1.0, 2.0, 3.0), {})
    assert ld.thresholds() == (1.0, 2.0, 3.0)
    assert indices(ld) == [2, 2, 1]
    assert abs(ld.weighted_sum() - 5.0) < 1e-12
    for lv in ld.levels:
        assert lv.exact


def test_level_indices_non_increasing_and_colorings_valid():
    rng = np.random.default_rng(21)
    for _ in range(40):
        pairs, weights = random_weighted_pairs(rng, int(rng.integers(2, 8)), 0.55, 0.1, 2.0)
        ld = level_decompose(pairs, weights, {})
        assert indices(ld) == sorted(indices(ld), reverse=True)
        prev = 0.0
        for lv in ld.levels:
            assert lv.threshold > prev
            prev = lv.threshold
            assert lv.coloring.is_valid_for(slice_at(pairs, weights, lv.threshold))


@settings(max_examples=150, deadline=None)
@given(small_graphs(9, weights=(0.5, 1.0, 1.5, 2.0)))
def test_level_colorings_are_exact_property(graph):
    _, pairs, weights = graph
    ld = level_decompose(pairs, weights, {})
    for lv in ld.levels:
        sub = slice_at(pairs, weights, lv.threshold)
        assert lv.coloring.is_valid_for(sub)
        assert lv.exact
        assert len(lv.coloring.classes) == exact_index(sub)


@settings(max_examples=150, deadline=None)
@given(small_graphs(8, weights=(0.5, 1.0, 1.0 + 1e-13, 1.5, 2.0)), st.data())
def test_results_do_not_depend_on_edge_order(graph, data):
    # a coloring is a function of the pair set, and a decomposition of the weighted edge set
    _, pairs, weights = graph
    shuffled = data.draw(st.permutations(tuple(zip(pairs, weights))))  # each pair keeps its weight
    res = color_edges(pairs)
    assert color_edges(tuple(pair for pair, _ in shuffled)) == res
    assert color_edges(frozenset(pairs)) == res
    ld = level_decompose(pairs, weights, {})
    assert level_decompose(tuple(pair for pair, _ in shuffled), tuple(w for _, w in shuffled), {}) == ld


def test_level_decompose_fallback_is_reported(monkeypatch):
    # past the cap, K8 (not overfull) keeps Misra-Gries's 8 classes unproven, while
    # K7 (overfull) has its 7 proven
    monkeypatch.setattr(graphs, "EXACT_SEARCH_CAP", 16)
    pairs, weights = fallback_k8()
    ld = level_decompose(pairs, weights, {})
    assert [(len(lv.coloring.classes), lv.exact) for lv in ld.levels] == [(8, False), (7, True)]
    for lv in ld.levels:
        assert lv.coloring.is_valid_for(slice_at(pairs, weights, lv.threshold))


@settings(max_examples=150, deadline=None)
@given(graph_sequences())
def test_shared_colorings_give_the_levels_of_each_graph_alone(sequence):
    known = {}
    for pairs, weights in sequence:
        shared = level_decompose(pairs, weights, known)
        assert shared == level_decompose(pairs, weights, {})
        assert shared == restricting_level_decompose(pairs, weights)
        for lv in shared.levels:
            sub = slice_at(pairs, weights, lv.threshold)
            assert max_degree(sub) <= len(lv.coloring.classes) <= max_degree(sub) + 1
            assert lv.coloring.is_valid_for(sub)
    for pairs, coloring in known.items():  # search results only, keyed by their edge set
        assert coloring == color_edges(sorted(pairs))


def test_shared_colorings_keep_fallbacks(monkeypatch):
    # the K8 case above three times, once with other weights: each level edge set is searched once
    monkeypatch.setattr(graphs, "EXACT_SEARCH_CAP", 16)
    searched = record_searches(monkeypatch)
    known = {}
    pairs, base = fallback_k8()
    for low, high in ((1.0, 2.0), (0.5, 3.0), (1.0, 2.0)):
        weights = tuple(high if w == 2.0 else low for w in base)
        ld = level_decompose(pairs, weights, known)
        assert [(len(lv.coloring.classes), lv.exact) for lv in ld.levels] == [(8, False), (7, True)]
        assert ld == restricting_level_decompose(pairs, weights)
    # two searches in all with the shared dict, two per graph for the oracle
    assert len(searched) == 3 * 2 + 2
    assert len(set(searched)) == 2 and set(known) == set(searched)


@settings(max_examples=150, deadline=None)
@given(graph_sequences())
@example([(((0, 1), (2, 3), (0, 2), (1, 3)), (1.0, 1.0, 2.0, 2.0))])
def test_levels_match_recounting_every_level(sequence):
    # weights take four values, so clusters of several edges leave at once; in the
    # 4-cycle the weight-1 edges are one class, which empties as the max degree drops
    known, oracle_known = {}, {}
    for pairs, weights in sequence:
        assert level_decompose(pairs, weights, {}) == recounting_level_decompose(pairs, weights)
        assert level_decompose(pairs, weights, known) == recounting_level_decompose(pairs, weights, oracle_known)
    assert known == oracle_known


def test_level_sum_matches_midpoint_quadrature():
    # midpoint rule at 10x level resolution integrates the level steps exactly
    rng = np.random.default_rng(33)
    for _ in range(30):
        pairs, weights = random_weighted_pairs(rng, int(rng.integers(2, 7)), 0.5, 0.1, 3.0)
        ld = level_decompose(pairs, weights, {})
        total = 0.0
        prev = 0.0
        for lv in ld.levels:
            h = (lv.threshold - prev) / 10.0
            for i in range(10):
                r = prev + (i + 0.5) * h
                total += exact_index(heavier_than(pairs, weights, r)) * h
            prev = lv.threshold
        assert abs(total - ld.weighted_sum()) < 1e-12


def test_threshold_monotonicity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        pairs, weights = random_weighted_pairs(rng, int(rng.integers(3, 8)), 0.5, 0.1, 2.0)
        r1, r2 = sorted(rng.uniform(0.0, 2.2, size=2))
        i1 = exact_index(heavier_than(pairs, weights, r1))
        i2 = exact_index(heavier_than(pairs, weights, r2))
        assert i2 <= i1


def test_near_equal_weights_merge():
    ld = level_decompose(((0, 1), (1, 2)), (1.0, 1.0 + 1e-13), {})
    assert len(ld.levels) == 1
    assert indices(ld) == [2]


def test_sweep_searches_take_its_degree_table(monkeypatch):
    # K4 with a tail: three levels are searched, each from the degree table the
    # sweep keeps, so only the sweep's own start counts degrees
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)]
    weights = list(range(1, len(pairs) + 1))
    counted = []
    degrees = graphs._degrees
    monkeypatch.setattr(graphs, "_degrees", lambda p: counted.append(p) or degrees(p))
    searched = record_searches(monkeypatch)
    ld = level_decompose(pairs, weights, {})
    assert len(searched) == 3
    assert counted == [pairs]
    monkeypatch.undo()
    assert ld == restricting_level_decompose(pairs, weights)
