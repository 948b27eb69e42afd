import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromlc import graphs
from chromlc.errors import BadParams
from chromlc.graphs import (
    EXACT_SEARCH_CAP,
    WeightedGraph,
    color_edges,
    edge_color_vizing,
    level_decompose,
    threshold_subgraph,
)

from helpers import oracle_chromatic_index, record_searches, restricting_level_decompose, wall_clock_bound


def complete_graph(n, w=1.0):
    return WeightedGraph(n, tuple((i, j, w) for i in range(n) for j in range(i + 1, n)))


def exact_index(g):
    """``color_edges(g).index``, checked to be the chromatic index and not a bound."""
    res = color_edges(g)
    assert res.exact
    return res.index


def fallback_k8_edges():
    """K8 as K7 (weight 2) plus a vertex joined by weight-1 edges."""
    edges = tuple((i, j, 2.0) for i in range(7) for j in range(i + 1, 7))
    return edges + tuple((i, 7, 1.0) for i in range(7))


@st.composite
def small_graphs(draw, max_vertices, weights=(1.0,)):
    """(n, edges): n <= max_vertices, each pair present or not, weights drawn from ``weights``."""
    n = draw(st.integers(1, max_vertices))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j, draw(st.sampled_from(weights))))
    return n, tuple(edges)


@st.composite
def graph_sequences(draw):
    """Weighted graphs on one vertex set that reuse a few edge sets, each
    time with freshly drawn weights, so level edge sets recur."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge_sets = draw(st.lists(st.lists(st.sampled_from(pairs), unique=True), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        chosen = draw(st.sampled_from(edge_sets))
        weights = st.sampled_from((0.5, 1.0, 1.5, 2.0))
        weights = draw(st.lists(weights, min_size=len(chosen), max_size=len(chosen)))
        out.append(WeightedGraph(n, tuple((k, l, w) for (k, l), w in zip(chosen, weights))))
    return out


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
    return WeightedGraph(10 * copies, tuple((a, b, 1.0) for a, b in relabeled))


def test_graph_validation():
    with pytest.raises(BadParams):
        WeightedGraph(3, ((0, 0, 1.0),))
    with pytest.raises(BadParams):
        WeightedGraph(3, ((0, 2, 1.0), (0, 2, 2.0)))
    with pytest.raises(BadParams):
        WeightedGraph(3, ((0, 1, 0.0),))
    with pytest.raises(BadParams):
        WeightedGraph(3, ((1, 3, 1.0),))


def test_threshold_subgraph():
    g = WeightedGraph(4, ((0, 1, 0.5), (1, 2, 1.0), (2, 3, 1.0)))
    assert threshold_subgraph(g, 0.0).edges == g.edges
    assert threshold_subgraph(g, 1.0).edges == ()
    assert threshold_subgraph(g, 0.5).pairs == ((1, 2), (2, 3))
    with pytest.raises(BadParams):
        threshold_subgraph(g, -0.1)


def test_chromatic_index_examples():
    matching = WeightedGraph(6, ((0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)))
    assert exact_index(matching) == 1
    path = WeightedGraph(5, tuple((i, i + 1, 1.0) for i in range(4)))
    assert exact_index(path) == 2
    assert exact_index(complete_graph(4)) == 3
    assert exact_index(WeightedGraph(3)) == 0


def test_chromatic_index_witness_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        edges = tuple(
            (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        )
        g = WeightedGraph(n, edges)
        res = color_edges(g)
        assert res.exact
        assert res.coloring.is_valid_for(g)
        assert res.coloring.n_classes() == res.index or res.index == 0
        assert res.index >= g.max_degree()
        assert res.index <= g.max_degree() + 1 or res.index == 0


def test_chromatic_index_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(80):
        n = int(rng.integers(2, 7))
        edges = tuple(
            (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
        )
        g = WeightedGraph(n, edges)
        assert exact_index(g) == oracle_chromatic_index(g.pairs, n)


@settings(max_examples=150, deadline=None)
@given(small_graphs(7))
def test_chromatic_index_matches_oracle_property(graph):
    n, edges = graph
    g = WeightedGraph(n, edges)
    res = color_edges(g)
    assert res.exact
    assert res.index == oracle_chromatic_index(g.pairs, n)
    assert res.coloring.is_valid_for(g)


def test_shuffled_petersen_copies_finish_fast():
    # four disjoint Petersen graphs: 60 edges, chromatic index 4 = max degree + 1;
    # the timer turns a search that would run for minutes into a failure
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = petersen_copies(4, rng)
        assert len(g.edges) == 60 <= EXACT_SEARCH_CAP
        with wall_clock_bound(2.0):
            res = color_edges(g)
        assert res.exact
        assert res.index == 4
        assert res.coloring.is_valid_for(g)


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
    g = WeightedGraph(n, tuple(e for e in complete_graph(n).edges if e[:2] not in missing))
    with wall_clock_bound(2.0):
        res = color_edges(g)
    assert (res.index, res.exact) == (index, True)
    assert res.coloring.is_valid_for(g)


def test_spent_search_budget_is_reported(monkeypatch):
    # K8 is 7-colorable, but a search stopped at once leaves Misra-Gries's 8 classes
    monkeypatch.setattr(graphs, "SEARCH_NODE_BUDGET", 1)
    g = complete_graph(8)
    res = color_edges(g)
    assert (res.index, res.exact) == (8, False)
    assert res.coloring.is_valid_for(g)


def test_color_edges_falls_back_beyond_cap():
    g = complete_graph(12)  # 66 edges
    res = color_edges(g)
    assert not res.exact
    assert res.coloring.is_valid_for(g)
    assert res.index == res.coloring.n_classes() in (11, 12)


def test_class_two_graphs():
    # odd cycles and odd complete graphs need max degree + 1 colors
    c5 = WeightedGraph(5, tuple((i, (i + 1) % 5, 1.0) for i in range(4)) + ((0, 4, 1.0),))
    assert exact_index(c5) == 3
    assert exact_index(complete_graph(5)) == 5
    assert exact_index(complete_graph(6)) == 5
    assert exact_index(complete_graph(7)) == 7


def test_vizing_trivials():
    assert edge_color_vizing(WeightedGraph(4)).n_classes() == 0
    star = WeightedGraph(6, tuple((0, i, 1.0) for i in range(1, 6)))
    col = edge_color_vizing(star)
    assert col.n_classes() == 5
    assert col.is_valid_for(star)


def test_vizing_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 16))
        p = float(rng.uniform(0.05, 0.95))
        edges = tuple(
            (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        g = WeightedGraph(n, edges)
        col = edge_color_vizing(g)
        assert col.is_valid_for(g)
        if edges:
            assert g.max_degree() <= col.n_classes() <= g.max_degree() + 1


def test_level_decompose_single_level():
    g = WeightedGraph(4, ((0, 1, 0.7), (1, 2, 0.7), (2, 3, 0.7)))
    ld = level_decompose(g)
    assert len(ld.levels) == 1
    assert ld.levels[0].threshold == 0.7
    assert ld.levels[0].chromatic_index == 2
    assert abs(ld.weighted_sum() - 1.4) < 1e-12


def test_level_decompose_weighted_chain():
    # chain 0-1-2-3 with weights 1,2,3: levels (1,2), (2,2), (3,1), sum 5
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    ld = level_decompose(g)
    assert ld.thresholds() == (1.0, 2.0, 3.0)
    assert tuple(lv.chromatic_index for lv in ld.levels) == (2, 2, 1)
    assert abs(ld.weighted_sum() - 5.0) < 1e-12
    for lv in ld.levels:
        assert lv.exact


def test_level_indices_non_increasing_and_colorings_valid():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        edges = tuple(
            (i, j, float(rng.uniform(0.1, 2.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.55
        )
        g = WeightedGraph(n, edges)
        ld = level_decompose(g)
        indices = [lv.chromatic_index for lv in ld.levels]
        assert indices == sorted(indices, reverse=True)
        prev = 0.0
        for lv in ld.levels:
            assert lv.threshold > prev
            prev = lv.threshold
            sub = WeightedGraph(n, tuple(e for e in edges if e[2] >= lv.threshold))
            assert lv.coloring.is_valid_for(sub)


@settings(max_examples=150, deadline=None)
@given(small_graphs(9, weights=(0.5, 1.0, 1.5, 2.0)))
def test_level_colorings_are_exact_property(graph):
    n, edges = graph
    ld = level_decompose(WeightedGraph(n, edges))
    for lv in ld.levels:
        sub = WeightedGraph(n, tuple(e for e in edges if e[2] >= lv.threshold))
        assert lv.coloring.is_valid_for(sub)
        assert lv.exact
        assert lv.chromatic_index == exact_index(sub)


def test_level_decompose_fallback_is_reported(monkeypatch):
    # past the cap, K8 (not overfull) keeps Misra-Gries's 8 classes unproven, while
    # K7 (overfull) has its 7 proven
    monkeypatch.setattr(graphs, "EXACT_SEARCH_CAP", 16)
    edges = fallback_k8_edges()
    ld = level_decompose(WeightedGraph(8, edges))
    assert [(lv.chromatic_index, lv.exact) for lv in ld.levels] == [(8, False), (7, True)]
    for lv in ld.levels:
        sub = WeightedGraph(8, tuple(e for e in edges if e[2] >= lv.threshold))
        assert lv.coloring.is_valid_for(sub)


@settings(max_examples=150, deadline=None)
@given(graph_sequences())
def test_shared_colorings_give_the_levels_of_each_graph_alone(sequence):
    known = {}
    n = sequence[0].n_vertices
    for g in sequence:
        shared = level_decompose(g, known)
        assert shared == level_decompose(g)
        assert shared == restricting_level_decompose(g)
        for lv in shared.levels:
            sub = WeightedGraph(n, tuple(e for e in g.edges if e[2] >= lv.threshold))
            assert sub.max_degree() <= lv.chromatic_index <= sub.max_degree() + 1
            assert lv.coloring.is_valid_for(sub)
    for pairs, res in known.items():  # search results only, keyed by their edge set
        assert res == color_edges(WeightedGraph(n, tuple((k, l, 1.0) for k, l in sorted(pairs))))


def test_shared_colorings_keep_fallbacks(monkeypatch):
    # the K8 case above three times, once with other weights: each level edge set is searched once
    monkeypatch.setattr(graphs, "EXACT_SEARCH_CAP", 16)
    searched = record_searches(monkeypatch)
    known = {}
    for low, high in ((1.0, 2.0), (0.5, 3.0), (1.0, 2.0)):
        edges = tuple((k, l, high if w == 2.0 else low) for k, l, w in fallback_k8_edges())
        g = WeightedGraph(8, edges)
        ld = level_decompose(g, known)
        assert [(lv.chromatic_index, lv.exact) for lv in ld.levels] == [(8, False), (7, True)]
        assert ld == restricting_level_decompose(g)
    # two searches in all with the shared dict, two per graph for the oracle
    assert len(searched) == 3 * 2 + 2
    assert len(set(searched)) == 2 and set(known) == set(searched)


def test_level_sum_matches_midpoint_quadrature():
    # midpoint rule at 10x level resolution integrates the level steps exactly
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        edges = tuple(
            (i, j, float(rng.uniform(0.1, 3.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        g = WeightedGraph(n, edges)
        ld = level_decompose(g)
        total = 0.0
        prev = 0.0
        for lv in ld.levels:
            h = (lv.threshold - prev) / 10.0
            for i in range(10):
                r = prev + (i + 0.5) * h
                total += exact_index(threshold_subgraph(g, r)) * h
            prev = lv.threshold
        assert abs(total - ld.weighted_sum()) < 1e-12


def test_threshold_monotonicity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        edges = tuple(
            (i, j, float(rng.uniform(0.1, 2.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        g = WeightedGraph(n, edges)
        r1, r2 = sorted(rng.uniform(0.0, 2.2, size=2))
        i1 = exact_index(threshold_subgraph(g, r1))
        i2 = exact_index(threshold_subgraph(g, r2))
        assert i2 <= i1


def test_near_equal_weights_merge():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0 + 1e-13)))
    ld = level_decompose(g)
    assert len(ld.levels) == 1
    assert ld.levels[0].chromatic_index == 2
