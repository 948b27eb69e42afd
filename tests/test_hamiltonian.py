import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromlc import hamiltonian, linalg
from chromlc.simulator import MeanFieldObservable
from chromlc.errors import BadParams, OutOfRange, TooLarge
from chromlc.graphs import color_edges, threshold_subgraph
from chromlc.hamiltonian import (
    MAX_GENERATED_TERMS,
    PAULI_LABELS,
    HamiltonianSchedule,
    Segment,
    chain,
    complete_mean_field,
    disjoint_pairs,
    embed_discrete,
    eval_pair,
    generate,
    integrated_chromatic_index,
    interaction_graph,
    pauli_coeffs,
    pauli_matrix,
    random_graph,
    random_time_varying,
    scale_schedule,
    snapshot,
    snapshots,
    weighted_chromatic_index,
)

from helpers import (
    pair_segment,
    per_qubit_observable_factors,
    per_term_random_graph,
    per_time_integrated_chromatic_index,
    per_time_matrices,
    random_gate_schedule,
    random_hermitian,
    record_searches,
    reference_matrices,
    restricting_level_decompose,
    single_pair_schedule,
    time_varying_schedule,
    wall_clock_bound,
)


def test_pauli_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = random_hermitian(4, rng)
        c = pauli_coeffs(m)
        assert np.max(np.abs(pauli_matrix(c) - m)) < 1e-12


def test_pauli_coeffs_reject_non_hermitian():
    with pytest.raises(Exception):
        pauli_coeffs(np.triu(np.ones((4, 4))))


def test_schedule_validation():
    term = {(0, 1): {"II": (1.0,)}}
    with pytest.raises(BadParams):
        HamiltonianSchedule(2, ())
    with pytest.raises(BadParams):
        HamiltonianSchedule(2, (pair_segment(0.5, 1.0, term),))
    with pytest.raises(BadParams):
        HamiltonianSchedule(2, (pair_segment(0.0, 0.4, term), pair_segment(0.5, 1.0, term)))
    with pytest.raises(BadParams, match="exceeds register"):
        HamiltonianSchedule(2, (pair_segment(0.0, 1.0, {(0, 2): {"XX": (1.0,)}}),))


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, float("inf")), "finite"),
        ((float("nan"), 1.0), "finite"),
        ((1.0, 1.0), "empty or reversed"),
        ((0.0, 1.0, ((1, 1),), np.zeros((1, 16, 1))), r"0 <= k < l"),
        ((0.0, 1.0, ((2, 1),), np.zeros((1, 16, 1))), r"0 <= k < l"),
        ((0.0, 1.0, ((0, 1), (0, 1)), np.zeros((2, 16, 1))), "duplicate"),
        ((0.0, 1.0, ((0, 1),), np.ones((1, 16, 10))), "degree exceeds 8"),
        ((0.0, 1.0, ((0, 1),), np.zeros((1, 15, 1))), "shape"),
        ((0.0, 1.0, ((0, 1),), np.zeros((2, 16, 1))), "shape"),
        ((0.0, 1.0, ((0, 1),), np.zeros((1, 16, 0))), "shape"),
        ((0.0, 1.0, ((0, 1), (1, 2)), np.array([[[0.0]] * 16, [[np.nan]] * 16])), r"pair \(1, 2\)"),
    ],
)
def test_segment_validation(args, message):
    with pytest.raises(BadParams, match=message):
        Segment(*args)


def test_segment_trims_top_degrees_and_compares_by_value():
    tracks = np.zeros((2, 16, 6))
    tracks[0, 3, :3] = (1.0, -0.5, 2.0)
    tracks[1, 5, 0] = 0.25
    seg = Segment(0.0, 1.0, ((0, 1), (2, 3)), tracks)
    assert seg.tracks.shape == (2, 16, 3)
    assert not seg.is_constant
    assert not seg.tracks.flags.writeable
    tracks[0, 3, 0] = 9.0  # the segment keeps its own copy
    assert seg.tracks[0, 3, 0] == 1.0
    assert seg == pair_segment(0.0, 1.0, {(0, 1): {"IZ": (1.0, -0.5, 2.0)}, (2, 3): {"XX": (0.25,)}})
    assert seg != Segment(0.0, 1.0, ((0, 1), (2, 3)), 2 * tracks)
    assert seg != Segment(0.0, 1.0, ((2, 3), (0, 1)), tracks)
    assert seg != Segment(0.0, 2.0, ((0, 1), (2, 3)), tracks)
    constant = Segment(0.0, 1.0, ((0, 1),), np.pad(np.ones((1, 16, 1)), ((0, 0), (0, 0), (0, 4))))
    assert constant.is_constant and constant.tracks.shape == (1, 16, 1)
    empty = Segment(0.0, 1.0)
    assert empty.is_constant and empty.tracks.shape == (0, 16, 1)
    assert empty == Segment(0.0, 1.0, (), np.zeros((0, 16, 7)))


def _reference_cases():
    """A mixed-degree time-varying segment with pairs out of order, one with
    an all-zero term, and an empty one."""
    rng = np.random.default_rng(41)
    mixed = rng.uniform(-0.5, 0.5, size=(3, 16, 6))
    mixed[0, :, 1:] = 0.0  # degree 0
    mixed[1, :, 3:] = 0.0  # degree 2
    mixed[1, 7, :] = 0.0  # one label absent
    zero = np.zeros((2, 16, 2))
    zero[1, 10] = (0.3, -0.7)
    return [
        Segment(0.0, 2.0, ((2, 3), (0, 1), (1, 3)), mixed),
        Segment(0.0, 1.0, ((0, 1), (1, 2)), zero),
        Segment(0.0, 1.0),
    ]


@pytest.mark.parametrize("seg", _reference_cases())
def test_matrices_at_matches_polyval_reference(seg):
    s = HamiltonianSchedule(4, (seg,))
    for t in np.linspace(seg.t_start, seg.t_end, 7):
        ref = reference_matrices(seg, t)
        got = seg.matrices_at(t)
        assert got.shape == ref.shape == (len(seg.pairs), 4, 4)
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-15
        snap = snapshot(s, t)
        rows = [seg.pairs.index(pair) for pair in snap.pairs]
        assert np.max(np.abs(snap.matrices - ref[rows]), initial=0.0) <= 1e-15
        active = [pair for pair, m in zip(seg.pairs, ref) if np.any(m != 0)]
        assert snap.pairs == tuple(sorted(active))


def test_matrices_at_beyond_the_float_range_raises_too_large():
    tracks = np.zeros((2, 16, 9))
    tracks[1, PAULI_LABELS.index("XX"), 8] = 1.0
    seg = Segment(0.0, 1e40, ((0, 1), (1, 2)), tracks)
    assert np.abs(seg.matrices_at(1e30)).max() == pytest.approx(1e240)
    with pytest.raises(TooLarge, match=r"^pair \(1, 2\): the term at t=1e\+40 exceeds the float range$"):
        seg.matrices_at(1e40)
    # finite coefficients whose sum overflows in one matrix entry
    tracks = np.zeros((1, 16, 1))
    tracks[0, [PAULI_LABELS.index("XX"), PAULI_LABELS.index("YY")]] = 1e308
    with pytest.raises(TooLarge, match=r"^pair \(0, 1\): the term at t=0\.5 exceeds the float range$"):
        Segment(0.0, 1.0, ((0, 1),), tracks).matrices_at(0.5)


_PAIRS = ((2, 3), (0, 1), (1, 3), (0, 2))  # out of lexicographic order


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(0, 8),
    terms=st.integers(0, len(_PAIRS)),
    seed=st.integers(0, 2**32 - 1),
    t_start=st.floats(0.0, 10.0),
    length=st.floats(1e-3, 10.0),
    inner=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_matrices_at_on_a_vector_equals_the_per_time_calls(degree, terms, seed, t_start, length, inner):
    tracks = np.random.default_rng(seed).normal(size=(terms, 16, degree + 1))
    seg = Segment(t_start, t_start + length, _PAIRS[:terms], tracks)
    times = [seg.t_start, *(seg.t_start + f * seg.length for f in inner), seg.t_end]
    got = seg.matrices_at(np.array(times))
    assert got.shape == (len(times), terms, 4, 4)
    per_time = np.stack([seg.matrices_at(t) for t in times])
    assert got.tobytes() == per_time.tobytes() == np.stack([per_time_matrices(seg, t) for t in times]).tobytes()


def test_matrices_at_on_a_vector_names_the_first_overflowing_time_and_pair():
    tracks = np.zeros((3, 16, 9))
    tracks[0, PAULI_LABELS.index("ZZ"), 8] = 1e10  # pair (2, 3) overflows from t = 1.9e37 on
    tracks[2, PAULI_LABELS.index("XX"), 8] = 1.0  # pair (1, 3) only from 3.4e38 on
    seg = Segment(0.0, 1e40, ((2, 3), (0, 1), (1, 3)), tracks)

    def first_failure(times):
        for t in times:
            try:
                seg.matrices_at(t)
            except TooLarge as exc:
                return str(exc)

    for times in ([1.0, 1e30, 1e39, 1e38], [1e38, 1e39], [0.5, 1e30, 1e40]):
        with pytest.raises(TooLarge) as info:
            seg.matrices_at(np.array(times))
        assert str(info.value) == first_failure(times)
    assert first_failure([1.0, 1e39]) == "pair (2, 3): the term at t=1e+39 exceeds the float range"
    # a grid of snapshots first fails in its third chunk of EIG_CHUNK // 3 times
    s = HamiltonianSchedule(4, (seg,))
    grid = np.linspace(0.0, 1e38, 5 * hamiltonian.EIG_CHUNK)
    with pytest.raises(TooLarge) as info:
        for _ in snapshots(s, seg, grid):
            pass
    assert str(info.value) == first_failure(grid)


def test_snapshots_of_a_grid_equal_the_one_time_snapshots():
    # one chunk holds EIG_CHUNK // 10 times of this 10-term segment, and a term vanishes at t = 0.5
    tracks = np.random.default_rng(5).normal(size=(10, 16, 3))
    tracks[3] = 0.0
    tracks[3, PAULI_LABELS.index("XY"), :2] = (-0.5, 1.0)
    pairs = tuple((k, l) for k in range(5) for l in range(k + 1, 5))[::-1]
    seg = Segment(0.0, 1.0, pairs, tracks)
    s = HamiltonianSchedule(5, (seg,))
    grid = np.concatenate([[0.5], np.linspace(0.0, 1.0, 3 * (hamiltonian.EIG_CHUNK // 10) + 7), [0.5]])
    got = list(snapshots(s, seg, grid))
    assert len(got) == len(grid)
    assert len(got[0].pairs) == len(got[-1].pairs) == 9
    for snap, t in zip(got, grid):
        one = snapshot(s, t)
        assert snap.pairs == one.pairs and snap.graph == one.graph
        for a, b in zip(snap[1:5], one[1:5]):
            assert a.tobytes() == b.tobytes()


def test_eval_pair():
    s = single_pair_schedule({"XX": (0.0, 1.0)}, t_total=2.0)
    m = eval_pair(s, (0, 1), 1.5)
    xx = pauli_matrix(np.eye(16)[PAULI_LABELS.index("XX")])
    assert np.max(np.abs(m - 1.5 * xx)) < 1e-12
    zz = single_pair_schedule({"ZZ": (1.0,)}, t_total=1.0, n=3)
    assert np.max(np.abs(eval_pair(zz, (0, 2), 0.5))) == 0.0
    assert abs(linalg.operator_norm(eval_pair(zz, (0, 1), 0.25)) - 1.0) < 1e-12
    with pytest.raises(OutOfRange):
        eval_pair(s, (0, 1), 2.5)
    with pytest.raises(OutOfRange):
        eval_pair(s, (0, 3), 0.5)


def test_segment_lookup_is_right_open():
    s = HamiltonianSchedule(
        2,
        (pair_segment(0.0, 0.5, {(0, 1): {"II": (1.0,)}}), pair_segment(0.5, 1.0, {(0, 1): {"II": (2.0,)}})),
    )
    assert eval_pair(s, (0, 1), 0.5)[0, 0].real == 2.0
    assert eval_pair(s, (0, 1), 1.0)[0, 0].real == 2.0
    assert eval_pair(s, (0, 1), 0.25)[0, 0].real == 1.0


def test_segment_lookup_is_bounded_on_many_segments():
    # rebuilding the list of segment starts on every lookup made these
    # 20,000 lookups, one per compiled subinterval of a 20,000-segment
    # schedule, take seconds
    n = 20_000
    ends = [i / n for i in range(n + 1)]
    s = HamiltonianSchedule(2, tuple(Segment(a, b) for a, b in zip(ends, ends[1:])))
    with wall_clock_bound(2.0):
        found = [s.segment_at((a + b) / 2) for a, b in zip(ends, ends[1:])]
    assert all(seg is want for seg, want in zip(found, s.segments))
    assert s.segment_at(1.0) is s.segments[-1]


def test_interaction_graph():
    s = chain(4, 1.0, 1.0)
    g = interaction_graph(s, 0.5, 0.0)
    assert g.pairs == ((0, 1), (1, 2), (2, 3))
    assert all(abs(w - 1.0) < 1e-9 for _, _, w in g.edges)
    assert interaction_graph(s, 0.5, 2.0).edges == ()
    zero = single_pair_schedule({}, t_total=1.0)
    assert interaction_graph(zero, 0.2, 0.0).edges == ()


def test_snapshot_norms_match_operator_norm():
    s = random_time_varying(6, p=0.6, seed=3)
    for t in (0.0, 0.37, 1.0):
        snap = snapshot(s, t)
        assert list(snap.pairs) == sorted(s.segments[0].pairs)
        assert snap.matrices.shape == (len(snap.pairs), 4, 4)
        for i, pair in enumerate(snap.pairs):
            matrix = eval_pair(s, pair, t)
            assert abs(snap.norms[i] - linalg.operator_norm(matrix)) < 1e-12
            assert np.array_equal(snap.matrices[i], matrix)
            w, v = snap.eigenvalues[i], snap.eigenvectors[i]
            assert np.max(np.abs((v * w) @ v.conj().T - matrix)) < 1e-12
        assert snap.graph.edges == tuple(
            (k, l, float(x)) for (k, l), x in zip(snap.pairs, snap.norms)
        )
        assert snap.graph == interaction_graph(s, t)


def test_snapshot_drops_zero_terms():
    s = HamiltonianSchedule(3, (Segment(0.0, 1.0, ((0, 1),), np.zeros((1, 16, 1))),))
    snap = snapshot(s, 0.5)
    assert snap.pairs == () and snap.graph.edges == ()
    assert snap.matrices.shape == (0, 4, 4) and snap.norms.shape == (0,)
    empty = HamiltonianSchedule(3, (Segment(0.0, 1.0),))
    assert snapshot(empty, 0.5).pairs == ()


def test_weighted_chromatic_index_examples():
    assert abs(weighted_chromatic_index(disjoint_pairs(6, coupling=0.8), 0.1) - 0.8) < 1e-9
    assert abs(weighted_chromatic_index(chain(5), 0.7) - 2.0) < 1e-9
    # weighted chain with norms 1, 2, 3 reproduces the level-sum value 5
    terms = {(i, i + 1): {"ZZ": (w,)} for i, w in enumerate((1.0, 2.0, 3.0))}
    s = HamiltonianSchedule(4, (pair_segment(0.0, 1.0, terms),))
    assert abs(weighted_chromatic_index(s, 0.5) - 5.0) < 1e-9


def test_weighted_index_matches_direct_threshold_integration():
    rng = np.random.default_rng(6)
    for seed in range(8):
        s = random_graph(5, p=0.6, seed=seed, coupling=float(rng.uniform(0.5, 2.0)))
        g = interaction_graph(s, 0.5, 0.0)
        if not g.edges:
            continue
        thresholds = sorted(set(w for _, _, w in g.edges))
        total = 0.0
        prev = 0.0
        for r in thresholds:
            mid = (prev + r) / 2.0
            res = color_edges(threshold_subgraph(g, mid))
            assert res.exact
            total += res.index * (r - prev)
            prev = r
        assert abs(total - weighted_chromatic_index(s, 0.5)) < 1e-12


def test_weighted_index_bounds():
    rng = np.random.default_rng(8)
    for seed in range(10):
        s = random_graph(6, p=0.5, seed=seed)
        g = interaction_graph(s, 0.3, 0.0)
        if not g.edges:
            continue
        w = weighted_chromatic_index(s, 0.3)
        max_norm = max(e[2] for e in g.edges)
        assert max_norm - 1e-12 <= w <= len(g.edges) * max_norm + 1e-12


def test_integrated_index_constant_exact():
    s = chain(4, 3.0, 1.0)
    prof = integrated_chromatic_index(s, 5)
    assert abs(prof.integral - 6.0) < 1e-9
    assert prof.error_estimate == 0.0
    assert len(prof.times) == 5
    assert np.all(prof.values >= 0)


def test_integrated_index_linear_ramp():
    s = single_pair_schedule({"XX": (0.0, 1.0)})
    prof = integrated_chromatic_index(s, 64)
    assert abs(prof.integral - 0.5) < 1e-6


def test_integrated_index_equals_segment_sum():
    s = random_graph(4, p=0.7, seed=3, segments=3)
    prof = integrated_chromatic_index(s, 8)
    per_segment = 0.0
    for seg in s.segments:
        mid = (seg.t_start + seg.t_end) / 2.0
        per_segment += weighted_chromatic_index(s, mid) * seg.length
    assert abs(prof.integral - per_segment) < 1e-12


def test_index_colors_each_distinct_edge_set_once_per_call(monkeypatch):
    # the index_dense instance: 24 samples of 44 edges, 187 level searches
    # without the per-call dict, on 82 distinct edge sets
    s = random_time_varying(12, p=0.7, seed=3)
    searched = record_searches(monkeypatch)
    first = integrated_chromatic_index(s, 8)
    assert len(searched) == len(set(searched)) == 82
    second = integrated_chromatic_index(s, 8)
    assert searched[82:] == searched[:82]  # nothing outlives a call
    assert second.integral == first.integral

    ours = set(searched)
    searched.clear()
    monkeypatch.setattr(hamiltonian, "level_decompose", lambda g, known: restricting_level_decompose(g))
    oracle = integrated_chromatic_index(s, 8)
    assert len(searched) == 187
    assert set(searched) == ours
    assert np.array_equal(oracle.times, first.times)
    assert np.array_equal(oracle.values, first.values)
    assert (oracle.integral, oracle.error_estimate) == (first.integral, first.error_estimate)


@pytest.mark.parametrize(
    "schedule, samples",
    [
        (random_time_varying(5, p=0.7, seed=0), 8),
        (random_time_varying(6, p=0.6, seed=3, degree=3), 16),
        (random_time_varying(8, p=0.5, seed=1, degree=8), 5),
        (random_time_varying(4, p=1.0, seed=2, degree=1), 400),  # 1200 times of 6 terms: several chunks
        (time_varying_schedule(5, 3, seed=4), 8),
        (random_graph(5, p=0.6, seed=2, segments=3), 8),
    ],
)
def test_integrated_index_equals_the_per_time_weighted_index(schedule, samples):
    prof = integrated_chromatic_index(schedule, samples)
    oracle = per_time_integrated_chromatic_index(schedule, samples)
    assert prof.times.tobytes() == oracle.times.tobytes()
    assert prof.values.tobytes() == oracle.values.tobytes()
    assert (prof.integral, prof.error_estimate) == (oracle.integral, oracle.error_estimate)


def test_integrated_index_samples_a_long_grid_chunk_by_chunk(monkeypatch):
    s = single_pair_schedule({"XX": (0.5, 1.0)})
    samples = 2 * hamiltonian.EIG_CHUNK  # 3 * samples one-pair matrices: six chunks
    calls = []
    eig = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda m: calls.append(len(m)) or eig(m))
    tracemalloc.start()
    try:
        prof = integrated_chromatic_index(s, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof.integral == pytest.approx(1.0, abs=1e-12)  # W(t) = 0.5 + t
    assert calls == [hamiltonian.EIG_CHUNK] * 6
    # one chunk's arrays take about 1.3 MB; the 6144 matrices at once took 5 MB
    assert peak < 3e6


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain(MAX_GENERATED_TERMS + 2),
        lambda: disjoint_pairs(2 * MAX_GENERATED_TERMS + 2),
        lambda: complete_mean_field(363),  # 65703 pairs
        lambda: random_graph(2, segments=MAX_GENERATED_TERMS + 1),
        lambda: random_graph(363, p=0.0),  # the bound counts every pair a draw may keep
        lambda: random_time_varying(363, p=0.0),
    ],
)
def test_generators_refuse_more_terms_than_the_cap(make):
    with pytest.raises(TooLarge, match=str(MAX_GENERATED_TERMS)):
        make()


def test_generators_reach_the_cap():
    s = chain(MAX_GENERATED_TERMS + 1)
    assert len(s.segments[0].pairs) == MAX_GENERATED_TERMS


def test_embed_empty_schedule():
    from chromlc.compiler import GateSchedule

    s = embed_discrete(GateSchedule(3, ()))
    assert s.total_time == 1.0
    assert integrated_chromatic_index(s).integral == 0.0


def test_embed_single_gate_angle():
    from chromlc.compiler import Gate, GateSchedule, Step

    rng = np.random.default_rng(12)
    h = random_hermitian(4, rng, norm=0.7)
    gate = Gate.from_unitary((0, 1), linalg.expm_i(h, 1.0))
    s = embed_discrete(GateSchedule(2, (Step((gate,)),)))
    assert abs(integrated_chromatic_index(s).integral - 0.7) < 1e-9


def test_embed_two_steps_sums_angles():
    from chromlc.compiler import Gate, GateSchedule, Step

    rng = np.random.default_rng(14)
    gates = []
    for norm in (0.3, 0.7):
        h = random_hermitian(4, rng, norm=norm)
        gates.append(Gate.from_unitary((0, 1), linalg.expm_i(h, 1.0)))
    s = embed_discrete(GateSchedule(2, (Step((gates[0],)), Step((gates[1],)))))
    assert abs(integrated_chromatic_index(s).integral - 1.0) < 1e-9


def test_embed_identity_weighted_depth_random():
    from chromlc.compiler import weighted_depth

    rng = np.random.default_rng(16)
    for _ in range(15):
        g = random_gate_schedule(4, rng)
        s = embed_discrete(g)
        assert abs(weighted_depth(g) - integrated_chromatic_index(s).integral) < 1e-9


def test_embed_reproduces_gate_unitary_through_integrator():
    from chromlc.simulator import full_unitary

    rng = np.random.default_rng(18)
    for _ in range(3):
        g = random_gate_schedule(4, rng, max_steps=3)
        s = embed_discrete(g)
        dist = linalg.spectral_distance(full_unitary(g), full_unitary(s, 1e-9))
        assert dist < 1e-8


def test_scaling_covariance():
    s = random_graph(5, p=0.6, seed=4, segments=2)
    lam = 2.75
    scaled = scale_schedule(s, lam)
    for t in (0.1, 0.6, 0.9):
        assert abs(
            weighted_chromatic_index(scaled, t) - lam * weighted_chromatic_index(s, t)
        ) < 1e-9
    assert abs(
        integrated_chromatic_index(scaled).integral
        - lam * integrated_chromatic_index(s).integral
    ) < 1e-9


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
def test_random_graph_matches_per_term_draws(n, p):
    for segments in (1, 2, 3, 4):
        for seed, coupling in ((0, 1.0), (5, 0.37), (2024, 2.5)):
            s = random_graph(n, 1.5, p=p, seed=seed, coupling=coupling, segments=segments)
            expected = per_term_random_graph(n, 1.5, p=p, seed=seed, coupling=coupling, segments=segments)
            assert len(s.segments) == segments
            for seg, (pairs, tracks) in zip(s.segments, expected):
                assert seg.pairs == pairs
                assert np.array_equal(seg.tracks, tracks)


class _ZeroRng:
    """A generator whose every draw is zero."""

    def random(self):
        return 0.0

    def standard_normal(self, size):
        return np.zeros(size)

    def normal(self, size):
        return np.zeros(size)


def test_degenerate_draws_raise(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ZeroRng())
    for draw in (
        lambda: random_graph(3, seed=1),
        lambda: random_time_varying(3, seed=1),
        lambda: per_term_random_graph(3, seed=1),
        lambda: MeanFieldObservable.random(3, seed=1),
        lambda: per_qubit_observable_factors(3, 1),
    ):
        with pytest.raises(RuntimeError, match="degenerated"):
            draw()


def test_generators():
    s = chain(4, 1.0, 1.0)
    assert len(s.segments[0].pairs) == 3
    assert random_graph(8, p=0.5, seed=7) == random_graph(8, p=0.5, seed=7)
    assert random_time_varying(4, p=0.7, seed=2) == random_time_varying(4, p=0.7, seed=2)
    assert random_graph(8, p=0.5, seed=7) != random_graph(8, p=0.5, seed=8)
    cmf = complete_mean_field(4)
    assert len(cmf.segments[0].pairs) == 6
    with pytest.raises(BadParams):
        generate("nope", n=4)
    with pytest.raises(BadParams):
        generate("chain", n=1)
    with pytest.raises(BadParams):
        generate("chain", n=4, bogus=1)


def test_time_varying_peak_norm():
    s = random_time_varying(4, p=1.0, seed=5, coupling=1.3, degree=3)
    seg = s.segments[0]
    norms = [[linalg.operator_norm(m) for m in seg.matrices_at(t)] for t in np.linspace(0, 1, 33)]
    peaks = np.max(norms, axis=0)
    assert len(peaks) == len(seg.pairs) > 0
    assert np.all(np.abs(peaks - 1.3) < 1e-9)
