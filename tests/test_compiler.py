import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from chromlc import cli, compiler, linalg
from chromlc.compiler import (
    Gate,
    GateSchedule,
    Step,
    compile,
    rechromatize,
    trotterize,
    weighted_depth,
)
from chromlc.errors import BadParams, EpsilonTooLarge, NotConstant, TooLarge
from chromlc.graphs import EXACT_SEARCH_CAP, color_edges
from chromlc.hamiltonian import (
    PAULI_LABELS,
    HamiltonianSchedule,
    chain,
    complete_mean_field,
    integrated_chromatic_index,
    pauli_coeffs,
    random_graph,
    random_time_varying,
    snapshot,
)

from helpers import (
    complete_minus_one_edge,
    forbid_integrated_index,
    gate_from_unitary,
    haar_unitary,
    pair_segment,
    per_gate_gates_from_eig,
    per_level_sample_steps,
    per_time_snapshots,
    random_hermitian,
    record_searches,
    restricting_level_decompose,
    single_pair_schedule,
    time_varying_schedule,
    two_pair_noncommuting,
    unitary_angle,
    w_at,
    wall_clock_bound,
)


ZERO = np.zeros(16)


def test_gate_validation():
    # what Gate.from_terms accepts: any int pairs with 0 <= k < l, one integer row and one duration each, or nothing
    assert Gate.from_terms([], np.zeros((0, 16)), [], []) == []
    assert Gate.from_terms([], [ZERO], np.array([], dtype=np.uint8), []) == []
    (gate,) = Gate.from_terms([[np.int64(0), 3.0]], [ZERO.tolist()], [np.uint8(0)], [2])
    assert gate.pair == (0, 3) and gate.angle == 0.0 and np.array_equal(gate.unitary, np.eye(4))
    assert (gate.duration, type(gate.duration)) == (2.0, float)
    g = gate_from_unitary((0, 1), haar_unitary(4, np.random.default_rng(1)))
    assert abs(g.angle - unitary_angle(g.unitary)) < 1e-12


@pytest.mark.parametrize(
    "pairs, terms, rows, durations, message",
    [
        ([(1, 0)], [ZERO], [0], [1.0], "gate pair (1,0) must satisfy 0 <= k < l"),
        ([(-1, 3)], [ZERO], [0], [1.0], "gate pair (-1,3) must satisfy 0 <= k < l"),
        ([(2, 2)], [ZERO], [0], [1.0], "gate pair (2,2) must satisfy 0 <= k < l"),
        ([(0, 1), (3, 2)], [ZERO], [0, 0], [1.0, 1.0], "gate pair (3,2) must satisfy 0 <= k < l"),
        ([(0, 1)], np.zeros((1, 15)), [0], [1.0], "gate term must hold 16 coefficients, got shape (15,)"),
        ([(0, 1)], ZERO, [0], [1.0], "gate term must hold 16 coefficients, got shape ()"),
        ([(0, 1)], np.zeros((1, 4, 4)), [0], [1.0], "gate term must hold 16 coefficients, got shape (4, 4)"),
        # zip would drop the surplus of any side
        ([(0, 1)], np.zeros((2, 16)), [0, 1], [1.0], "gate stacks differ: 1 pairs, rows (2,), durations (1,)"),
        ([(0, 1), (1, 2), (2, 3)], np.zeros((2, 16)), [0, 1], [1.0] * 3, "gate stacks differ: 3 pairs, rows (2,)"),
        ([(0, 1)], np.zeros((0, 16)), [0], [1.0], "gate rows must be integers in [0, 0)"),
        ([(0, 1)], [ZERO], [0], [1.0, 1.0], "gate stacks differ: 1 pairs, rows (1,), durations (2,)"),
        ([(0, 1)], [ZERO], [0], 1.0, "gate stacks differ: 1 pairs, rows (1,), durations ()"),
        ([(0, 1)], [ZERO], [0], [[1.0]], "gate stacks differ: 1 pairs, rows (1,), durations (1, 1)"),
        ([(0, 1)], [ZERO], 0, [1.0], "gate stacks differ: 1 pairs, rows (), durations (1,)"),
        ([(0, 1)], [ZERO], [[0]], [1.0], "gate stacks differ: 1 pairs, rows (1, 1), durations (1,)"),
        ([(0, 1), (2, 3)], [ZERO, ZERO], [0], [1.0, 1.0], "gate stacks differ: 2 pairs, rows (1,), durations (2,)"),
        ([(0, 1)], [ZERO, ZERO], [2], [1.0], "gate rows must be integers in [0, 2)"),
        ([(0, 1), (2, 3)], [ZERO, ZERO], [0, -1], [1.0, 1.0], "gate rows must be integers in [0, 2)"),
        ([(0, 1)], [ZERO], [0.0], [1.0], "gate rows must be integers in [0, 1)"),
        ([(0, 1)], [ZERO], [True], [1.0], "gate rows must be integers in [0, 1)"),
        ([(0, 1), (2, 3)], [ZERO, ZERO], [False, True], [1.0, 1.0], "gate rows must be integers in [0, 2)"),
        ([(0, 1)], [ZERO], ["0"], [1.0], "gate rows must be integers in [0, 1)"),
        ([(0, 1)], [ZERO], [None], [1.0], "gate rows must be integers in [0, 1)"),
        # the gate document could not hold it: json would write Infinity or NaN, which its reader refuses
        ([(0, 1), (2, 3)], [ZERO], [0, 0], [1.0, math.inf], "gate durations must be finite"),
        ([(0, 1)], [ZERO], [0], [math.nan], "gate durations must be finite"),
    ],
    ids=[
        "pair-reversed",
        "pair-negative",
        "pair-equal",
        "pair-reversed-after-a-good-one",
        "fifteen-coefficients",
        "one-flat-term",
        "matrix-terms",
        "fewer-pairs",
        "more-pairs",
        "no-terms",
        "more-durations",
        "scalar-duration",
        "nested-durations",
        "scalar-row",
        "nested-rows",
        "fewer-rows",
        "row-past-the-table",
        "row-negative",
        "float-row",
        "bool-row",
        "bool-rows",
        "string-row",
        "none-row",
        "infinite-duration",
        "nan-duration",
    ],
)
def test_gates_from_terms_refuses_bad_input(pairs, terms, rows, durations, message):
    # Gate.from_terms, the one way to build gates from outside the compiler
    with pytest.raises(BadParams, match=re.escape(message)):
        Gate.from_terms(pairs, terms, rows, durations)


def _huge(*labels):
    return [1e308 if label in labels else 0.0 for label in PAULI_LABELS]


_BEYOND = "the term's matrix and norm must lie within the float range"


@pytest.mark.parametrize(
    "table, rows, bad",
    [
        # XX and YY of 1e308: matrix entries of 2e308, in a row a gate uses and in one none does
        ([ZERO, _huge("XX", "YY")], [1], 1),
        ([ZERO, _huge("XX", "YY")], [0], 1),
        # II and XX of 1e308: finite matrix entries of 1e308, but an eigenvalue of 2e308
        ([ZERO, _huge("II", "XX")], [1], 1),
        ([ZERO, _huge("II", "XX")], [0], 1),
        ([ZERO, [math.inf] + [0.0] * 15], [0], 1),
        # the first row beyond the range is named, whichever way it overflows
        ([ZERO, _huge("II", "XX"), _huge("XX", "YY")], [0], 1),
        ([ZERO, _huge("XX", "YY"), _huge("II", "XX")], [0], 1),
        ([_huge("II", "XX"), ZERO, _huge("XX", "YY")], [1], 0),
    ],
    ids=[
        "entries",
        "unused-entries",
        "norm",
        "unused-norm",
        "infinite",
        "norm-then-entries",
        "entries-then-norm",
        "first",
    ],
)
def test_gates_from_terms_refuse_a_term_beyond_the_float_range(table, rows, bad):
    # every row of the table is checked before any gate is built, at a tiny duration too
    with pytest.raises(TooLarge, match=f"^{re.escape(f'terms[{bad}]: {_BEYOND}')}$"):
        Gate.from_terms([(0, 1)], table, rows, [1e-300])


def test_gates_from_terms_share_a_row():
    # one row run by gates on two pairs for different durations: the gates one-row builds give
    term = pauli_coeffs(random_hermitian(4, np.random.default_rng(7)))
    pairs, durations = [(0, 1), (2, 3), (1, 2)], [0.5, 2.0, 50.0]  # the last past pi
    gates = Gate.from_terms(pairs, [ZERO, term], [1, 1, 1], durations)
    assert gates == [Gate.from_terms([pair], [term], [0], [tau])[0] for pair, tau in zip(pairs, durations)]
    assert [gate.pair for gate in gates] == pairs and [gate.duration for gate in gates] == durations
    assert gates[2].angle < math.pi


def test_gates_are_read_only():
    terms = np.ones((2, 16))
    gates = Gate.from_terms(np.array([(0, 1), (2, 3)]), terms, np.arange(2), np.array([0.5, 2.0]))
    for gate in gates:
        with pytest.raises(ValueError):
            gate.unitary[0, 0] = 1.0
        with pytest.raises(ValueError):
            gate.term[0] = 1.0
    terms[1, 0] = 5.0  # the caller's array is copied, not frozen
    assert np.array_equal(gates[1].term, np.ones(16))
    assert gates[1].pair == (2, 3) and all(type(x) is int for x in gates[1].pair)
    assert type(gates[1].angle) is float
    assert [(gate.duration, type(gate.duration)) for gate in gates] == [(0.5, float), (2.0, float)]


def _assert_built(g):
    """What building every gate from an eigendecomposition guarantees: the
    unitaries are unitary at 1e-10 (checked as one stack), each angle is a
    finite float, each pair an int tuple (k, l) with k < l, each duration a
    finite float >= 0, and each unitary and term is read-only."""
    gates = [gate for step in g.steps for gate in step.gates]
    assert linalg.is_unitary(np.reshape([gate.unitary for gate in gates], (-1, 4, 4)), 1e-10)
    for gate in gates:
        assert type(gate.angle) is float and math.isfinite(gate.angle)
        assert type(gate.pair) is tuple and [type(x) for x in gate.pair] == [int, int]
        assert gate.pair[0] < gate.pair[1]
        assert type(gate.duration) is float and 0.0 <= gate.duration < math.inf
        assert not gate.unitary.flags.writeable and not gate.term.flags.writeable


def test_gates_from_terms_are_exp_of_minus_i_tau_h():
    # angle: ||A|| up to pi, then the largest |phase| of exp(-i A), the smallest generator norm
    rng = np.random.default_rng(29)
    norms = np.concatenate([[0.0, 0.3, math.pi], rng.uniform(0.1, 6.0, size=40)])
    hs = [random_hermitian(4, rng, norm=norm) for norm in norms]
    hs[2] = np.diag([0.0, 0.0, 0.0, math.pi]).astype(complex)  # exp(-i A) is CZ
    pairs = [(0, 1)] * len(hs)
    rows = range(len(hs))
    gates = Gate.from_terms(pairs, [pauli_coeffs(h) for h in hs], rows, [1.0] * len(hs))
    assert gates == [Gate.from_terms([(0, 1)], [gate.term], [0], [1.0])[0] for gate in gates]
    assert gates[0].angle == 0.0 and np.array_equal(gates[0].unitary, np.eye(4))
    assert np.max(np.abs(gates[2].unitary - np.diag([1, 1, 1, -1]))) < 1e-15
    for gate, h, norm in zip(gates, hs, norms):
        assert np.max(np.abs(gate.unitary - linalg.expm_i(h, 1.0))) < 1e-12
        assert np.array_equal(gate.term, pauli_coeffs(h)) and gate.duration == 1.0
        assert abs(gate.angle - unitary_angle(gate.unitary)) < 1e-12
        assert gate.angle <= norm + 1e-12
        if norm <= math.pi:
            assert abs(gate.angle - norm) < 1e-12
    # a duration scales the term: the unitaries of the generators tau * H at duration 1.0, to rounding
    taus = rng.uniform(0.0, 2.0, size=len(hs))
    scaled = Gate.from_terms(pairs, [pauli_coeffs(h) for h in hs], rows, taus)
    plain = Gate.from_terms(pairs, [tau * pauli_coeffs(h) for tau, h in zip(taus, hs)], rows, [1.0] * len(hs))
    for gate, other, tau, h in zip(scaled, plain, taus, hs):
        assert np.max(np.abs(gate.unitary - other.unitary)) < 1e-12 and abs(gate.angle - other.angle) < 1e-12
        assert np.max(np.abs(gate.unitary - linalg.expm_i(h, tau))) < 1e-12
    # a negative duration runs the term backwards: the angle is |tau| ||H||
    h = hs[3]
    (gate,) = Gate.from_terms([(0, 1)], [pauli_coeffs(h)], [0], [-0.5])
    assert abs(gate.angle - 0.5 * float(linalg.hermitian_norms(h))) < 1e-12
    assert np.max(np.abs(gate.unitary - linalg.expm_i(h, -0.5))) < 1e-12


@pytest.mark.parametrize(
    "schedule",
    [
        random_time_varying(6, p=0.6, seed=3),
        random_graph(6, p=0.6, seed=3, segments=4),
        chain(6, 1.0, 100.0),  # gate angles past pi: taken from the unitaries
        single_pair_schedule({"XX": (0.0,)}),  # a sample with no edges
    ],
)
def test_compile_gates_match_the_per_level_per_gate_path(schedule, monkeypatch):
    g, report = compile(schedule, 0.05)
    monkeypatch.setattr(compiler, "_sample_steps", per_level_sample_steps)
    oracle_g, oracle_report = compile(schedule, 0.05)
    assert g == oracle_g
    assert report == oracle_report
    _assert_built(g)


@pytest.mark.parametrize(
    "schedule, epsilon",
    [
        (random_time_varying(6, p=0.6, seed=3), 0.05),
        (random_time_varying(8, p=0.9, seed=2, degree=4), 0.02),  # 50 midpoints of 25 terms: two chunks
        (time_varying_schedule(5, 3, seed=1), 0.05),
        (random_graph(6, p=0.6, seed=3, segments=4), 0.05),
    ],
)
def test_compile_and_rechromatize_match_per_midpoint_snapshots(schedule, epsilon, monkeypatch):
    g, report = compile(schedule, epsilon)
    capped = rechromatize(schedule, 2, epsilon)
    monkeypatch.setattr(compiler, "snapshots", per_time_snapshots)
    oracle_g, oracle_report = compile(schedule, epsilon)
    assert g == oracle_g
    assert report == oracle_report
    assert capped == rechromatize(schedule, 2, epsilon)


@pytest.mark.parametrize("coupling", [1.0, 100.0])
def test_trotterize_gates_match_the_per_gate_path(coupling, monkeypatch):
    s = chain(6, 1.0, coupling)
    g = trotterize(s, 3)
    _assert_built(g)
    monkeypatch.setattr(compiler, "_gates_from_eig", per_gate_gates_from_eig)
    assert g == trotterize(s, 3)
    # at coupling 100 each generator has norm 100 / 3 and the principal angle is taken
    assert max(gate.angle for step in g.steps for gate in step.gates) <= np.pi


def test_compile_builds_each_samples_gates_as_one_stack(tmp_path, monkeypatch):
    # the compile_tv instance: 20 samples, 220 levels, 1320 gates, unitary by construction
    path = tmp_path / "tv.json"
    assert cli.main(["generate", "random_time_varying", "--n", "6", "--p", "0.6", "--seed", "3", "-o", str(path)]) == 0
    calls = {"is_unitary": 0, "_gates_from_eig": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counting(linalg, "is_unitary")
    counting(compiler, "_gates_from_eig")
    assert cli.main(["compile", str(path), "--epsilon", "0.05", "-o", str(tmp_path / "gates.json")]) == 0
    assert calls == {"is_unitary": 0, "_gates_from_eig": 20}


def test_step_requires_disjoint_pairs():
    a = gate_from_unitary((0, 1), np.eye(4))
    b = gate_from_unitary((1, 2), np.eye(4))
    c = gate_from_unitary((2, 3), np.eye(4))
    Step((a, c))
    with pytest.raises(BadParams):
        Step((a, b))
    with pytest.raises(BadParams, match="^a step needs at least one gate$"):
        Step(())
    # gates 0/2 and 1/3 overlap: the first gate that touches an earlier gate's qubit is named
    gates = [gate_from_unitary(pair, np.eye(4)) for pair in [(0, 1), (2, 3), (1, 4), (3, 5)]]
    with pytest.raises(BadParams, match=r"^step gates overlap at pair \(1, 4\)$"):
        Step(gates)


def test_gates_are_records():
    # equal by value, arrays included, whether compared by == or !=; unhashable and immutable
    a, b = (Gate.from_terms([(0, 1)], [ZERO], [0], [1.0])[0] for _ in range(2))
    (c,) = Gate.from_terms([(0, 1)], [np.ones(16)], [0], [1.0])
    assert a is not b and a.unitary is not b.unitary
    assert (a == b, a != b, a == c, a != c) == (True, False, False, True)
    assert (a == 1, a != 1) == (False, True)
    assert [a, c] == [b, c] and [a, c] != [c, a]
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.duration = 2.0


def test_weighted_depth_trivials():
    empty = weighted_depth(GateSchedule(2, ()))
    assert (empty, type(empty)) == (0.0, float)
    rng = np.random.default_rng(4)

    def gate(pair, norm):
        return gate_from_unitary(pair, linalg.expm_i(random_hermitian(4, rng, norm=norm), 1.0))

    one = GateSchedule(4, (Step((gate((0, 1), 0.2), gate((2, 3), 0.5))),))
    assert abs(weighted_depth(one) - 0.5) < 1e-10
    two = GateSchedule(4, (Step((gate((0, 1), 0.5),)), Step((gate((0, 1), 0.3),))))
    assert abs(weighted_depth(two) - 0.8) < 1e-10


def test_compile_single_pair_exact():
    s = single_pair_schedule({"XX": (0.4,), "ZZ": (0.3,)})
    norm = w_at(s, 0.5)
    gates, report = compile(s, 1.0)
    assert report.n_steps == 1
    assert len(gates.steps[0].gates) == 1
    assert abs(report.weighted_depth - norm) < 1e-12
    assert abs(report.weighted_depth - integrated_chromatic_index(s).integral) < 1e-9
    expected = linalg.expm_i(s.segments[0].matrices_at(0.5)[0], 1.0)
    assert np.max(np.abs(gates.steps[0].gates[0].unitary - expected)) < 1e-12


def test_compile_chain_bond_matchings():
    for n in (4, 6):
        s = chain(n, 1.0, 1.0)
        gates, report = compile(s, 0.25)
        assert abs(report.weighted_depth - 2.0) < 1e-9
        even = tuple((i, i + 1) for i in range(0, n - 1, 2))
        odd = tuple((i, i + 1) for i in range(1, n - 1, 2))
        for step in gates.steps:
            pairs = tuple(g.pair for g in step.gates)
            assert pairs in (even, odd)


def test_compile_epsilon_cap():
    s = chain(4, 0.5, 1.0)
    with pytest.raises(EpsilonTooLarge):
        compile(s, 0.75)
    with pytest.raises(BadParams):
        compile(s, -0.1)


def test_compile_depth_is_midpoint_riemann_sum():
    s = single_pair_schedule({"ZI": (1.0,), "XI": (0.0, 1.0)})
    eps = 0.125
    _, report = compile(s, eps)
    mids = [(i + 0.5) * eps for i in range(8)]
    riemann = sum(eps * w_at(s, t) for t in mids)
    assert abs(report.weighted_depth - riemann) < 1e-12


def test_compile_piecewise_constant_depth_matches_index():
    for seed in (1, 2, 3):
        s = random_graph(4, p=0.7, seed=seed, segments=2)
        for eps in (0.5, 0.25, 0.125):
            _, report = compile(s, eps)
            assert abs(report.weighted_depth - integrated_chromatic_index(s).integral) < 1e-9


def test_compile_does_not_compute_the_integrated_index(monkeypatch):
    s = random_time_varying(4, p=0.8, seed=2)
    expected, _ = compile(s, 0.25)
    forbid_integrated_index(monkeypatch)
    g, report = compile(s, 0.25)
    assert g == expected
    assert "source_integrated_index" not in asdict(report)


def _interval_blocks(g, report):
    """The steps of each subinterval, in report order."""
    blocks, start = [], 0
    for iv in report.intervals:
        stop = start + sum(iv.chromatic_indices)
        blocks.append(g.steps[start:stop])
        start = stop
    assert start == len(g.steps)
    return blocks


def test_compile_repeats_each_constant_segment_block():
    s = random_graph(6, p=0.6, seed=3, segments=4)
    g, report = compile(s, 0.05)
    blocks = _interval_blocks(g, report)
    assert len(blocks) == 20
    for k, seg in enumerate(s.segments):
        first = blocks[5 * k]
        assert first
        for j in range(5):
            block = blocks[5 * k + j]
            assert len(block) == len(first)
            for step, first_step in zip(block, first):
                assert step is first_step
            iv = report.intervals[5 * k + j]
            assert iv.t_mid == pytest.approx(seg.t_start + (j + 0.5) * 0.05, abs=1e-15)
            assert iv.delta == pytest.approx(0.05, abs=1e-15)
    assert len({iv.t_mid for iv in report.intervals}) == 20
    assert blocks[0][0] != blocks[5][0]


def _gates_by_interval(g, report):
    """``(interval, its gates)`` for every subinterval, in report order."""
    return [
        (iv, [gate for step in block for gate in step.gates])
        for iv, block in zip(report.intervals, _interval_blocks(g, report))
    ]


def test_compile_gates_run_the_schedules_own_coefficients():
    # a constant segment's gates run its tracks as written; a time-varying
    # one's run its coefficients at the midpoint, exactly where a track is
    # zero: a projection of the matrices onto the Pauli products would
    # leave II noise of up to 5.6e-17 here
    s = random_graph(6, p=0.6, seed=3, segments=4)
    g, report = compile(s, 0.05)
    for iv, gates in _gates_by_interval(g, report):
        seg = s.segment_at(iv.t_mid)
        tracks = dict(zip(seg.pairs, seg.tracks[:, :, 0]))
        assert all(np.array_equal(gate.term, tracks[gate.pair]) for gate in gates)
    tv = random_time_varying(6, p=0.6, seed=3)
    g, report = compile(tv, 0.05)
    (seg,) = tv.segments
    for iv, gates in _gates_by_interval(g, report):
        oracle = dict(zip(seg.pairs, [[polyval(iv.t_mid, row) for row in rows] for rows in seg.tracks]))
        for gate in gates:
            assert gate.term[0] == 0.0  # II: the generator writes none
            assert np.max(np.abs(gate.term - oracle[gate.pair])) <= 1e-15


@pytest.mark.parametrize("seed", [3, 11])
def test_compile_durations_of_an_edge_sum_to_its_subinterval(seed):
    # the telescoping identity in the gate record: over one subinterval an
    # edge's gates share one term and run it for d in all
    s = random_time_varying(6, p=0.6, seed=seed)
    g, report = compile(s, 0.05)
    for iv, gates in _gates_by_interval(g, report):
        totals, terms = {}, {}
        for gate in gates:
            totals[gate.pair] = totals.get(gate.pair, 0.0) + gate.duration
            assert np.array_equal(terms.setdefault(gate.pair, gate.term), gate.term)
        assert sorted(totals) == list(snapshot(s, iv.t_mid).pairs)
        for total in totals.values():
            assert abs(total - iv.delta) <= 1e-12 * iv.delta


def test_report_thresholds_are_python_floats():
    # numpy 2 writes an np.float64 as np.float64(...), so a numpy scalar here would change the repr
    _, report = compile(random_time_varying(6, p=0.6, seed=3), 0.05)
    thresholds = [r for interval in report.intervals for r in interval.thresholds]
    assert len(thresholds) == 220
    assert all(type(r) is float for r in thresholds)
    assert "np." not in repr(report.intervals)


def test_compile_colors_each_distinct_edge_set_once(monkeypatch):
    # the compile_tv instance: 20 subintervals, 72 level searches without the per-call dict
    s = random_time_varying(6, p=0.6, seed=3)
    searched = record_searches(monkeypatch)
    g, report = compile(s, 0.05)
    assert len(searched) == len(set(searched)) == 11
    ours = set(searched)
    searched.clear()
    monkeypatch.setattr(compiler, "level_decompose", lambda pairs, weights, known: restricting_level_decompose(pairs, weights))
    oracle_g, oracle_report = compile(s, 0.05)
    assert len(searched) == 72 and set(searched) == ours
    assert g == oracle_g
    assert report == oracle_report


def test_compile_equal_constant_segments_keep_their_own_delta():
    # the same XX term on [0, 0.25] and [0.25, 1]: eps 0.2 gives deltas 0.125 and 0.1875
    term = {(0, 1): {"XX": (0.8,)}}
    s = HamiltonianSchedule(2, (pair_segment(0.0, 0.25, term), pair_segment(0.25, 1.0, term)))
    h = s.segments[0].matrices_at(0.0)[0]
    g, report = compile(s, 0.2)
    assert [iv.delta for iv in report.intervals] == [0.125] * 2 + [0.1875] * 4
    assert [iv.t_mid for iv in report.intervals] == pytest.approx(
        [0.0625, 0.1875, 0.34375, 0.53125, 0.71875, 0.90625], abs=1e-15
    )
    assert len(g.steps) == 6
    for step, iv in zip(g.steps, report.intervals):
        (gate,) = step.gates
        assert abs(gate.angle - 0.8 * iv.delta) < 1e-15
        expected = linalg.expm_i(h, iv.delta)
        assert np.max(np.abs(gate.unitary - expected)) < 1e-12
    assert abs(report.weighted_depth - 0.8) < 1e-12


def test_compile_level_gates_telescope():
    # two adjacent edges with distinct norms: per-edge products over levels
    # must reproduce the plain exponential of the subinterval
    seg = pair_segment(0.0, 0.5, {(i, i + 1): {"XX": (w,)} for i, w in enumerate((1.0, 2.0))})
    s = HamiltonianSchedule(3, (seg,))
    gates, _ = compile(s, 0.5)
    per_edge = {}
    for step in gates.steps:
        for g in step.gates:
            acc = per_edge.get(g.pair, np.eye(4, dtype=complex))
            per_edge[g.pair] = g.unitary @ acc
    for pair, h in zip(seg.pairs, seg.matrices_at(0.25)):
        expected = linalg.expm_i(h, 0.5)
        assert np.max(np.abs(per_edge[pair] - expected)) < 1e-10


def test_compile_angles_match_unitaries_time_varying():
    s = random_time_varying(5, p=0.7, seed=4)
    g, _ = compile(s, 0.1)
    assert g.steps
    for step in g.steps:
        for gate in step.gates:
            assert abs(gate.angle - unitary_angle(gate.unitary)) < 1e-12


@pytest.mark.parametrize("coupling", [100.0, 1000.0])
def test_compile_angle_past_pi_falls_back_to_unitary_angle(coupling):
    # one level of width `coupling` per subinterval of 0.05: generator norm 5 or 50 > pi
    s = chain(4, coupling=coupling)
    g, _ = compile(s, 0.05)
    h = s.segments[0].matrices_at(0.0)[0]
    expected = linalg.expm_i(h, 0.05)
    for step in g.steps:
        for gate in step.gates:
            angle = unitary_angle(gate.unitary)
            assert angle <= np.pi
            assert abs(gate.angle - angle) < 1e-12
            assert np.max(np.abs(gate.unitary - expected)) < 1e-12


def test_compile_deterministic():
    s = random_graph(5, p=0.6, seed=11, segments=2)
    a, _ = compile(s, 0.2)
    b, _ = compile(s, 0.2)
    assert a == b


def test_compile_reports_fallback_coloring():
    # K12 minus an edge (65 edges, one level) is past the exact-search cap: Misra-Gries, exact=False
    s = complete_minus_one_edge(12)
    g, report = compile(s, 1.0)
    assert sum(len(step.gates) for step in g.steps) == 65
    (interval,) = report.intervals
    assert interval.exact == (False,)
    assert interval.chromatic_indices[0] in (11, 12)
    assert len(g.steps) == interval.chromatic_indices[0]
    assert asdict(report)["intervals"][0]["exact"] == (False,)


def test_compile_certifies_overfull_beyond_cap():
    # K13 (78 edges) is past the cap but overfull: its 13 Misra-Gries classes are optimal
    s = complete_mean_field(13)
    g, report = compile(s, 1.0)
    (interval,) = report.intervals
    assert interval.exact == (True,)
    assert interval.chromatic_indices == (13,)
    assert len(g.steps) == 13


def test_compile_skips_empty_subintervals():
    s = single_pair_schedule({}, t_total=1.0)
    gates, report = compile(s, 0.25)
    assert gates.steps == ()
    assert report.weighted_depth == 0.0


def test_trotterize_repeats_one_pass_of_steps():
    s = random_graph(4, p=1.0, seed=0)
    g = trotterize(s, 5)
    width = len(s.segments[0].pairs)
    assert len(g.steps) == 5 * width
    assert all(step is g.steps[i % width] for i, step in enumerate(g.steps))


def test_trotterize_single_pair_matches_compile():
    s = single_pair_schedule({"XX": (0.4,), "YY": (0.2,)})
    a = trotterize(s, 1)
    b, _ = compile(s, 1.0)
    assert a == b


def test_trotterize_commuting_exact():
    # ZZ couplings on a chain commute, so any slicing is exact
    s = HamiltonianSchedule(4, (pair_segment(0.0, 1.0, {(i, i + 1): {"ZZ": (0.7,)} for i in range(3)}),))
    from chromlc.simulator import full_unitary

    ref = full_unitary(s, 1e-11)
    for m in (1, 3):
        u = full_unitary(trotterize(s, m))
        assert linalg.spectral_distance(u, ref) < 1e-9


def test_trotterize_rejects_time_dependence():
    with pytest.raises(NotConstant):
        trotterize(single_pair_schedule({"XX": (0.0, 1.0)}), 4)
    s = random_graph(4, p=0.6, seed=1, segments=2)
    with pytest.raises(NotConstant):
        trotterize(s, 4)
    with pytest.raises(BadParams):
        trotterize(single_pair_schedule({"XX": (1.0,)}), 0)


def test_trotterize_depth_is_sequential():
    s = two_pair_noncommuting()
    g = trotterize(s, 5)
    assert len(g.steps) == 10
    assert all(len(step.gates) == 1 for step in g.steps)


def test_rechromatize_k1_is_midpoint_snapshot():
    s = chain(4, 1.0, 1.0)  # chromatic index 2 everywhere
    out = rechromatize(s, 2, 0.25)
    assert abs(out.total_time - 1.0) < 1e-12
    for seg in out.segments:
        mid = (seg.t_start + seg.t_end) / 2.0
        assert snapshot(out, mid).pairs == snapshot(s, 0.5).pairs


def test_rechromatize_chain_to_matchings():
    s = chain(4, 1.0, 1.0)
    out = rechromatize(s, 1, 0.25)
    assert abs(out.total_time - 2.0) < 1e-12
    for seg in out.segments:
        mid = (seg.t_start + seg.t_end) / 2.0
        assert len(color_edges(snapshot(out, mid).pairs).classes) <= 1


def test_rechromatize_respects_cap_random():
    for seed in (0, 5):
        s = random_graph(5, p=0.8, seed=seed)
        for m in (1, 2):
            out = rechromatize(s, m, 0.5)
            for seg in out.segments:
                mid = (seg.t_start + seg.t_end) / 2.0
                assert len(color_edges(snapshot(out, mid).pairs).classes) <= m


def test_rechromatize_beyond_exact_cap_falls_back():
    # K12 minus an edge has 65 edges, past the exact-search cap: Misra-Gries colors it instead
    s = complete_minus_one_edge(12)
    assert len(s.segments[0].pairs) > EXACT_SEARCH_CAP
    out = rechromatize(s, 4, 1.0)
    assert len(out.segments) == 3  # 11 or 12 matchings, four per group
    assert abs(out.total_time - 3.0) < 1e-12
    seen = []
    for seg in out.segments:
        pairs = snapshot(out, (seg.t_start + seg.t_end) / 2.0).pairs
        assert len(color_edges(pairs).classes) <= 4
        seen.extend(pairs)
    assert sorted(seen) == [(i, j) for i in range(12) for j in range(i + 1, 12)][1:]


def test_rechromatize_error_shrinks():
    from chromlc.simulator import full_unitary

    s = chain(4, 1.0, 1.0)
    ref = full_unitary(s, 1e-10)
    errs = [
        linalg.spectral_distance(full_unitary(rechromatize(s, 1, eps), 1e-10), ref)
        for eps in (0.25, 0.125)
    ]
    assert errs[1] < errs[0]


def test_rechromatize_zero_hamiltonian():
    s = single_pair_schedule({}, t_total=1.0)
    out = rechromatize(s, 1, 0.5)
    assert abs(out.total_time - 1.0) < 1e-12
    assert all(not seg.pairs for seg in out.segments)


def test_rechromatize_param_validation():
    s = chain(4, 1.0, 1.0)
    with pytest.raises(BadParams):
        rechromatize(s, 0, 0.25)
    with pytest.raises(EpsilonTooLarge):
        rechromatize(s, 1, 2.0)


def test_subinterval_cap_holds_for_the_whole_schedule():
    # 65 unit segments at epsilon 1/1024: 1024 subintervals each, within the
    # cap one by one but 66,560 in all.  Counted per segment, 1000 unit
    # segments at epsilon 1.53e-5 asked for 65.4 million subintervals (a
    # gate file of some 130 GB) and ran past a 10 s timeout.
    s = random_graph(2, 65.0, p=1.0, seed=1, segments=65)
    message = "epsilon 0.0009765625 splits the schedule into more than 65536 subintervals"
    with wall_clock_bound(5.0):
        for run in (lambda: compile(s, 1 / 1024), lambda: rechromatize(s, 1, 1 / 1024)):
            with pytest.raises(TooLarge) as info:
                run()
            assert str(info.value) == message
