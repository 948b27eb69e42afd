import math
import re
from functools import reduce

import numpy as np
import pytest

from chromlc import linalg, simulator
from chromlc.compiler import Gate, GateSchedule, Step, compile
from chromlc.errors import (
    BadParams,
    DimensionMismatch,
    NormDrift,
    OutOfRange,
    ToleranceUnreachable,
    TooLarge,
)
from chromlc.hamiltonian import (
    HamiltonianSchedule,
    Segment,
    chain,
    integrated_chromatic_index,
    random_graph,
    random_time_varying,
    scale_schedule,
)
from chromlc.simulator import (
    MeanFieldObservable,
    basis_state,
    full_unitary,
    moments,
    product_state,
    propagate,
    variance,
)

from helpers import (
    dense_hamiltonian,
    dense_schedule_unitary,
    embed_single_operator,
    exact_unitary_piecewise_constant,
    gate_from_unitary,
    ghz_amplitudes,
    haar_unitary,
    oracle_generators,
    pass_major_integrate_adaptive,
    per_qubit_observable_factors,
    random_gate_schedule,
    random_hermitian,
    rk4_pass,
    single_pair_schedule,
    time_varying_schedule,
    wall_clock_bound,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_basis_state():
    with pytest.raises(OutOfRange, match="^basis index 7 outside register of 2 qubits$"):
        basis_state(2, 7)
    with pytest.raises(TooLarge, match="state vectors are limited to 18 qubits, got 40"):
        basis_state(40, 0)
    psi = basis_state(3, 5)
    assert psi.shape == (8,) and psi[5] == 1.0 and np.count_nonzero(psi) == 1


def one_gate_schedule(n, pair, unitary):
    return GateSchedule(n, (Step((gate_from_unitary(pair, unitary),)),))


def test_gates_identity_and_swap():
    psi = basis_state(2, 0b01)
    out = propagate(one_gate_schedule(2, (0, 1), np.eye(4)), psi)
    assert np.array_equal(out, psi)
    swapped = propagate(one_gate_schedule(2, (0, 1), SWAP), psi)
    assert abs(swapped[0b10] - 1.0) < 1e-14


def test_gates_qubit_order_convention():
    # qubit 0 is the most significant bit: a gate on (0,1) of a 3-qubit
    # register must leave qubit 2 alone
    psi = basis_state(3, 0b011)
    out = propagate(one_gate_schedule(3, (0, 1), SWAP), psi)
    assert abs(out[0b101] - 1.0) < 1e-14
    # a gate outside the register never reaches the state
    with pytest.raises(BadParams):
        one_gate_schedule(3, (1, 3), SWAP)
    with pytest.raises(DimensionMismatch):
        propagate(one_gate_schedule(4, (1, 3), SWAP), psi)


def test_norm_preserved_over_many_gates():
    rng = np.random.default_rng(3)
    gates = [
        gate_from_unitary(tuple(sorted(rng.choice(5, size=2, replace=False))), haar_unitary(4, rng))
        for _ in range(64)
    ]
    schedule = GateSchedule(5, tuple(Step((gates[i % len(gates)],)) for i in range(10_000)))
    psi = propagate(schedule, basis_state(5, 0))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_gates_refuse_norm_drift():
    # each gate passes the unitarity check, but 30 000 of them grow the norm
    # by 1.2e-6: gates promise no tolerance, so the fixed 1e-6 limit holds
    gate = Gate((0, 1), (1 + 4e-11) * np.eye(4), 0.0, np.zeros(16))
    schedule = GateSchedule(2, (Step((gate,)),) * 30_000)
    psi = basis_state(2, 0)
    with pytest.raises(NormDrift, match=r"^state norm 1\.0000012\d* drifted beyond 1e-06$"):
        propagate(schedule, psi)
    with pytest.raises(NormDrift, match="drifted beyond 1e-06"):
        propagate(schedule, np.stack([psi, basis_state(2, 3)], axis=1), 0.1)


def test_gates_trivials():
    psi = basis_state(3, 4)
    assert np.array_equal(propagate(GateSchedule(3, ()), psi), psi)
    with pytest.raises(DimensionMismatch):
        propagate(GateSchedule(4, ()), psi)


def test_gates_inverse_roundtrip():
    rng = np.random.default_rng(5)
    g = random_gate_schedule(4, rng)
    inverse_steps = tuple(
        Step(tuple(gate_from_unitary(x.pair, x.unitary.conj().T) for x in step.gates))
        for step in reversed(g.steps)
    )
    inv = GateSchedule(4, inverse_steps)
    psi = haar_unitary(16, rng)[:, 0]
    out = propagate(inv, propagate(g, psi))
    assert np.max(np.abs(out - psi)) < 1e-9


def test_split_steps_equivalent():
    rng = np.random.default_rng(7)
    a = gate_from_unitary((0, 1), haar_unitary(4, rng))
    b = gate_from_unitary((2, 3), haar_unitary(4, rng))
    joint = GateSchedule(4, (Step((a, b)),))
    split = GateSchedule(4, (Step((a,)), Step((b,))))
    psi = haar_unitary(16, rng)[:, 0]
    assert np.max(
        np.abs(propagate(joint, psi) - propagate(split, psi))
    ) < 1e-12


def test_gates_match_dense_oracle():
    rng = np.random.default_rng(9)
    for n in (3, 4):
        for _ in range(5):
            g = random_gate_schedule(n, rng)
            dense = dense_schedule_unitary(g)
            psi = basis_state(n, int(rng.integers(0, 2**n)))
            out = propagate(g, psi)
            assert np.max(np.abs(out - dense @ psi)) < 1e-10


def random_states(n, k, rng):
    block = rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
    return block / np.linalg.norm(block, axis=0)


def test_propagate_block_matches_its_columns():
    # gates: bit for bit; integrator: to rounding, on the dense generators
    # (4 qubits) and on the per-term contractions (10 qubits)
    rng = np.random.default_rng(21)
    g = random_gate_schedule(5, rng, max_steps=12)
    block = random_states(5, 6, rng)
    out = propagate(g, block)
    for j in range(block.shape[1]):
        assert np.array_equal(out[:, j], propagate(g, block[:, j]))
    for s, k in (
        (time_varying_schedule(4, 3, seed=2, p=0.8, degree=3), 6),
        (random_graph(10, 0.5, p=0.2, seed=4, segments=2), 3),
    ):
        block = random_states(s.n_qubits, k, rng)
        out = propagate(s, block, 1e-10)
        for j in range(k):
            assert np.max(np.abs(out[:, j] - propagate(s, block[:, j], 1e-10))) <= 1e-15


def test_propagate_validation():
    s = single_pair_schedule({"ZZ": [1.0]})
    psi = basis_state(2, 0)
    for shape in ((5,), (4, 2, 1)):
        with pytest.raises(DimensionMismatch):
            propagate(s, np.zeros(shape))
    with pytest.raises(BadParams):
        propagate("not a schedule", psi)
    with pytest.raises(BadParams):
        propagate(s, psi, float("nan"))
    # every column of a block is drift-checked, not just the first
    block = np.stack([psi, 2 * psi], axis=1)
    with pytest.raises(NormDrift, match="norm to 2.0"):
        propagate(s, block)


def test_evolve_zero_hamiltonian():
    s = single_pair_schedule({}, t_total=1.0)
    psi = basis_state(2, 2)
    out = propagate(s, psi, 1e-10)
    assert np.max(np.abs(out - psi)) < 1e-12


def test_evolve_single_pair_matches_expm():
    rng = np.random.default_rng(11)
    h = random_hermitian(4, rng, norm=1.3)
    from chromlc.hamiltonian import pauli_coeffs

    s = HamiltonianSchedule(2, (Segment(0.0, 0.9, ((0, 1),), pauli_coeffs(h).reshape(1, 16, 1)),))
    psi = haar_unitary(4, rng)[:, 0]
    out = propagate(s, psi, 1e-10)
    expected = linalg.expm_i(h, 0.9) @ psi
    assert np.max(np.abs(out - expected)) < 1e-9


def test_evolve_two_terms_matches_full_expm():
    s = random_graph(4, p=0.9, seed=21, coupling=0.8)
    psi = basis_state(4, 3)
    out = propagate(s, psi, 1e-10)
    h_full = dense_hamiltonian(s, 0.5)
    expected = linalg.expm_i(h_full, 1.0) @ psi
    assert np.max(np.abs(out - expected)) < 1e-8


def test_evolve_time_reversal_inverts():
    s = random_graph(3, p=1.0, seed=2, segments=2)
    # reverse segment order and negate couplings: running the reversed
    # schedule after the forward one must restore the initial state
    reversed_segments = []
    t = 0.0
    for seg in reversed(s.segments):
        reversed_segments.append(Segment(t, t + seg.length, seg.pairs, -seg.tracks))
        t += seg.length
    back = HamiltonianSchedule(s.n_qubits, tuple(reversed_segments))
    psi = basis_state(3, 1)
    fwd = propagate(s, psi, 1e-11)
    rt = propagate(back, fwd, 1e-11)
    assert np.max(np.abs(rt - psi)) < 1e-9


def test_evolve_tolerance_validation():
    s = single_pair_schedule({"XX": (1.0,)})
    psi = basis_state(2, 0)
    # NaN passed a plain "tol < 1e-12" check and then halved the step forever
    for tol in (1e-14, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadParams):
            propagate(s, psi, tol)
        with pytest.raises(BadParams):
            propagate(GateSchedule(2, ()), psi, tol)
        with pytest.raises(BadParams):
            full_unitary(s, tol)
        with pytest.raises(BadParams):
            full_unitary(GateSchedule(2, ()), tol)
    with pytest.raises(DimensionMismatch):
        propagate(s, basis_state(3, 0), 1e-9)


def test_dense_generators_match_per_term(monkeypatch):
    # constant segments, polynomial ones of degree 1 and 3, and an empty one
    cases = [(3, Segment(0.0, 1.0))]
    for n in (2, 3, 5):
        cases += [(n, seg) for seg in random_graph(n, 2.0, p=0.7, seed=n, segments=2).segments]
        for degree in (1, 3):
            cases.append((n, random_time_varying(n, 1.5, p=0.8, seed=n, degree=degree).segments[0]))
    rng = np.random.default_rng(31)
    for n, seg in cases:
        dense = simulator._segment_generator(seg, n)
        with monkeypatch.context() as m:
            m.setattr(simulator, "DENSE_GENERATOR_MAX_QUBITS", 1)
            m.setattr(simulator, "_dense_generators", _no_dense)
            per_term = simulator._segment_generator(seg, n)
        oracle = oracle_generators(seg, n)
        for shape in ((2**n,), (2**n, 3)):
            xs = rng.normal(size=(len(oracle), *shape)) + 1j * rng.normal(size=(len(oracle), *shape))
            ref = sum(g @ x for g, x in zip(oracle, xs))
            for apply in (dense, per_term):
                got = apply(xs)
                assert got.shape == shape
                assert np.max(np.abs(got - ref)) < 1e-12


def _kron_pair_embedding(mat4, n, k, l):
    """``mat4`` on qubits (k, l) of n: kron with the identity on the other
    qubits, then the qubit axes permuted into place."""
    order = [k, l] + [q for q in range(n) if q not in (k, l)]
    tensor = np.kron(mat4, np.eye(2 ** (n - 2))).reshape((2,) * (2 * n))
    back = list(np.argsort(order))
    return tensor.transpose(back + [n + q for q in back]).reshape(2**n, 2**n)


def test_scatter_offsets_place_every_entry_as_the_kron_embedding():
    mat = np.arange(1.0, 17.0).reshape(4, 4)  # distinct values, so a misplaced entry shows
    for n in range(2, simulator.DENSE_GENERATOR_MAX_QUBITS + 1):
        for k in range(n):
            for l in range(k + 1, n):
                table = simulator._scatter_offsets(n, k, l)
                assert table.shape == (2 ** (n - 2), 16)
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 0
                got = np.zeros(4**n)
                got[table] = mat.reshape(16)
                assert np.array_equal(got.reshape(2**n, 2**n), _kron_pair_embedding(mat, n, k, l))


def _no_dense(seg, n):
    raise AssertionError("dense generators built above the cutoff")


def test_per_term_path_matches_dense(monkeypatch):
    # both paths run the same Taylor substeps; only the rounding of the
    # operator applications differs
    n = 4
    pwc = random_graph(n, 1.0, p=0.6, seed=n, segments=3, coupling=0.7)
    tv = random_time_varying(n, 1.0, p=0.6, seed=n, coupling=0.7)
    psi = haar_unitary(2**n, np.random.default_rng(n))[:, 0]
    runs = []
    for per_term in (False, True):
        if per_term:
            monkeypatch.setattr(simulator, "DENSE_GENERATOR_MAX_QUBITS", n - 1)
            monkeypatch.setattr(simulator, "_dense_generators", _no_dense)
        runs.append(
            [propagate(s, psi, 1e-8) for s in (pwc, tv)]
            + [full_unitary(s, 1e-8) for s in (pwc, tv)]
        )
    for dense, per_term in zip(*runs):
        assert np.max(np.abs(dense - per_term)) < 1e-12


def _count_builds(monkeypatch):
    """Count ``_segment_generator`` builds and the calls of the maps they return, one per Taylor order."""
    counts = {"builds": 0, "evaluations": 0}
    build = simulator._segment_generator

    def counted(seg, n):
        counts["builds"] += 1
        apply = build(seg, n)

        def g(xs):
            counts["evaluations"] += 1
            return apply(xs)

        return g

    monkeypatch.setattr(simulator, "_segment_generator", counted)
    return counts


def _late_segment(n, degree):
    """A zero segment on [0, 10], then a time-varying one on [10, 11] that keeps the
    tracks of a draw over [0, 11], so its polynomials are evaluated around t = 10."""
    (seg,) = random_time_varying(n, 11.0, p=1.0, seed=degree, degree=degree).segments
    return HamiltonianSchedule(n, (Segment(0.0, 10.0), Segment(10.0, 11.0, seg.pairs, seg.tracks)))


@pytest.mark.parametrize(
    "schedule, per_term",
    [(random_time_varying(3, 1.0, p=1.0, seed=d, degree=d), False) for d in range(1, 9)]
    + [
        (random_time_varying(3, 1.0, p=1.0, seed=8, degree=8), True),
        (_late_segment(3, 3), False),
        (_late_segment(4, 2), True),
        (time_varying_schedule(3, 400, seed=1, p=1.0, coupling=2.0), False),  # shares of 2.5e-12
        (time_varying_schedule(4, 4, seed=3, p=0.5), True),
    ],
)
def test_time_varying_segments_meet_their_tolerance(monkeypatch, schedule, per_term):
    # against step-halving RK4 at a tenth of the tolerance, on a state and
    # on the identity block
    tol = 1e-9
    n = schedule.n_qubits
    if per_term:
        monkeypatch.setattr(simulator, "DENSE_GENERATOR_MAX_QUBITS", n - 1)
        monkeypatch.setattr(simulator, "_dense_generators", _no_dense)
    psi = haar_unitary(2**n, np.random.default_rng(n))[:, 0]
    state = propagate(schedule, psi, tol)
    block = full_unitary(schedule, tol)
    assert np.linalg.norm(state - pass_major_integrate_adaptive(schedule, psi, tol / 10)) <= tol
    ref = pass_major_integrate_adaptive(schedule, np.eye(2**n, dtype=complex), tol / 10)
    assert np.max(np.linalg.norm(block - ref, axis=0)) <= tol


def test_strong_coupling_integrates():
    # step-halving RK4 does not reach 1e-10 on this schedule: the rounding of
    # its passes outgrows the tolerance
    s = random_time_varying(4, 1.0, p=0.8, seed=4, coupling=100.0)
    (seg,) = s.segments
    psi = haar_unitary(16, np.random.default_rng(4))[:, 0]
    with wall_clock_bound(20.0):
        state = propagate(s, psi, 1e-10)
        block = full_unitary(s, 1e-10)
    # 2^13 fixed RK4 steps come within 3e-7 of the result
    gens = oracle_generators(seg, 4)
    assert np.linalg.norm(state - rk4_pass(gens, seg, 2**13, psi)) <= 1e-6
    assert np.max(np.linalg.norm(block - rk4_pass(gens, seg, 2**13, np.eye(16, dtype=complex)), axis=0)) <= 1e-6


def test_shares_below_rk4_rounding_integrate():
    # a share of 1e-15 per segment, below the rounding of two RK4 passes;
    # four RK4 steps a segment come within 1e-15 of the result
    s = time_varying_schedule(3, 1000, p=1.0)
    psi = haar_unitary(8, np.random.default_rng(3))[:, 0]
    state = propagate(s, psi, 1e-12)
    ref = psi
    for seg in s.segments:
        ref = rk4_pass(oracle_generators(seg, 3), seg, 4, ref)
    assert np.linalg.norm(state - ref) <= 1e-12


def test_taylor_plan_keeps_the_constant_segment_orders():
    # a constant segment takes the smallest order m whose remainder bound
    # e^theta theta^(m+1) / (m+1)! is within share / (4 s); a segment of D + 1
    # degrees takes the order (D + 1)(m + 1) - 1 with the same bound
    rng = np.random.default_rng(12)
    for nu, share in zip(rng.uniform(0.0, 50.0, 2000), 10.0 ** rng.uniform(-16.0, -4.0, 2000)):
        substeps, order = simulator._taylor_plan(nu, share, 1)
        theta = nu / substeps
        bounds = [math.exp(theta) * theta**r / math.factorial(r) for r in (order, order + 1)]
        assert substeps == math.ceil(nu)
        assert bounds[1] <= share / (4 * substeps) < bounds[0]
        for degrees in (2, 9):
            assert simulator._taylor_plan(nu, share, degrees) == (substeps, degrees * (order + 1) - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_constant_segments_match_exact_exponentials(monkeypatch, n):
    # coupling 2 needs several Taylor substeps per segment
    s = random_graph(n, 1.0, p=0.8, seed=n, segments=2, coupling=2.0)
    assert all(seg.length * simulator._norm_bound(seg) > 2 for seg in s.segments)
    exact = exact_unitary_piecewise_constant(s)
    psi = haar_unitary(2**n, np.random.default_rng(n))[:, 0]
    runs = []
    for per_term in (False, True):
        if per_term:
            monkeypatch.setattr(simulator, "DENSE_GENERATOR_MAX_QUBITS", n - 1)
            monkeypatch.setattr(simulator, "_dense_generators", _no_dense)
        state = propagate(s, psi, 1e-12)
        block = full_unitary(s, 1e-12)
        assert np.max(np.abs(state - exact @ psi)) <= 1e-12
        assert np.max(np.abs(block - exact)) <= 1e-12
        runs.append((state, block))
    for dense, per_term in zip(*runs):
        assert np.max(np.abs(dense - per_term)) <= 1e-12


def test_mixed_schedule_meets_its_tolerance():
    constant = random_graph(4, 1.0, p=0.7, seed=6, segments=4)
    varying = time_varying_schedule(4, 4, seed=6, p=0.7)
    s = HamiltonianSchedule(4, tuple(
        (constant if i % 2 == 0 else varying).segments[i] for i in range(4)
    ))
    assert [seg.is_constant for seg in s.segments] == [True, False, True, False]
    psi = haar_unitary(16, np.random.default_rng(6))[:, 0]
    state, block = propagate(s, psi, 1e-12), full_unitary(s, 1e-12)
    for tol in (1e-6, 1e-8):
        assert np.linalg.norm(propagate(s, psi, tol) - state) <= tol
        assert np.max(np.linalg.norm(full_unitary(s, tol) - block, axis=0)) <= tol


def test_variance_trial_evolution_applies_the_generator_21_times(monkeypatch):
    # the draw and scaling of one verify-variance trial at n = 8, alpha = 0.25:
    # four substeps whose series stop after orders 5, 6, 5, 5, where the
    # majorant plans 8, 9, 8, 8, against 4 * (16 + 32) = 192 derivative
    # evaluations of step-halving RK4
    draw = random_graph(8, 1.0, p=0.4, seed=1, segments=4)
    s = scale_schedule(draw, 0.25 / integrated_chromatic_index(draw).integral)
    counts = _count_builds(monkeypatch)
    propagate(s, basis_state(8, 0), 1e-8)
    assert counts == {"builds": 4, "evaluations": 21}
    plans = [simulator._taylor_plan(seg.length * simulator._norm_bound(seg), 1e-8 * seg.length, 1) for seg in s.segments]
    assert plans == [(1, 8), (1, 9), (1, 8), (1, 8)]


def _planned_taylor(seg, n, nu, share, array):
    """The substeps of ``simulator._taylor`` on ``seg``, each run to the order
    the plan caps it at, on the dense oracle generators; returns the array
    and the planned count of generator applications."""
    gens = oracle_generators(seg, n)
    substeps, order = simulator._taylor_plan(nu, share, len(gens))
    tau = seg.length / substeps
    for i in range(substeps):
        t0 = seg.t_start + i * tau
        a = [sum(math.comb(d, j) * t0 ** (d - j) * gens[d] for d in range(j, len(gens))) for j in range(len(gens))]
        terms = [array]  # e_0, e_1, ...
        for k in range(order):
            nxt = sum(tau**j * (a[j] @ terms[k - j]) for j in range(min(k, len(a) - 1) + 1))
            terms.append(nxt * (tau / (k + 1)))
        array = sum(terms)
    return array, substeps * order


@pytest.mark.parametrize("per_term", [False, True])
@pytest.mark.parametrize(
    "seg, applications",
    [
        (random_graph(4, 1.0, p=0.8, seed=4, coupling=2.0).segments[0], [133, 133, 171, 171]),
        (_late_segment(4, 3).segments[1], [134, 136, 168, 168]),  # degree 3 on [10, 11]
        (random_time_varying(4, 1.0, p=0.8, seed=8, degree=8, coupling=0.25).segments[0], [163, 166, 205, 207]),
    ],
)
def test_taylor_series_stop_within_share_of_the_planned_order(monkeypatch, seg, applications, per_term):
    # the early stop moves a segment by at most share/4 against the same
    # substeps run to the planned order, on a state and a 20-column block,
    # and applies the generator less often than the plan: as often as the
    # tail bound (D + 1) M theta / (k + 1 - theta) asks, which the
    # difference alone would not pin (it stays far below share/4)
    n = 4
    if per_term:
        monkeypatch.setattr(simulator, "DENSE_GENERATOR_MAX_QUBITS", n - 1)
        monkeypatch.setattr(simulator, "_dense_generators", _no_dense)
    counts = _count_builds(monkeypatch)
    nu = seg.length * simulator._norm_bound(seg)
    assert nu > 2  # several substeps
    rng = np.random.default_rng(34)
    block = rng.normal(size=(2**n, 20)) + 1j * rng.normal(size=(2**n, 20))
    block /= np.linalg.norm(block, axis=0)
    cases = [(share, array) for share in (1e-6, 1e-10) for array in (block[:, 0], block)]
    for (share, array), expected in zip(cases, applications, strict=True):
        counts["evaluations"] = 0
        got = simulator._taylor(simulator._segment_generator(seg, n), seg, nu, share, array)
        ref, planned = _planned_taylor(seg, n, nu, share, array)
        assert np.max(np.linalg.norm((got - ref).reshape(2**n, -1), axis=0)) <= share / 4
        assert counts["evaluations"] == expected < planned


def test_taylor_series_runs_to_the_cap_when_its_terms_meet_the_majorant(monkeypatch):
    # ZZ on |00> over three substeps of theta = 1: every term e_k = (-i)^k / k!
    # has the norm the majorant allows, so no series stops before the planned order
    (seg,) = single_pair_schedule({"ZZ": (1.0,)}, t_total=3.0).segments
    counts = _count_builds(monkeypatch)
    for share in (1e-6, 1e-10):
        counts["evaluations"] = 0
        got = simulator._taylor(simulator._segment_generator(seg, 2), seg, 3.0, share, basis_state(2, 0))
        substeps, order = simulator._taylor_plan(3.0, share, 1)
        assert counts["evaluations"] == substeps * order
        assert abs(got[0] - np.exp(-3j)) <= share / 4


_WILD = chain(2, 1.0, 1e9).segments[0]
_CALM_THEN_WILD = HamiltonianSchedule(2, (chain(2, 0.5).segments[0], Segment(0.5, 1.0, _WILD.pairs, _WILD.tracks)))


@pytest.mark.parametrize(
    "schedule, tol, message",
    [
        (chain(2, 1.0, 1e9), 1e-10, "the schedule needs more than 65536 Taylor substeps"),
        # each segment needs only some 1e4 substeps, the schedule 1e7
        (random_graph(2, 1.0, p=1.0, segments=1000, coupling=1e7), 1e-10, "more than 65536 Taylor substeps"),
        (random_time_varying(2, 1.0, p=1.0, coupling=1e9), 1e-10, "more than 65536 Taylor substeps"),
        # each segment needs some 300 substeps of weight 9, the schedule 3e6
        (time_varying_schedule(2, 1000, p=1.0, coupling=1e5), 1e-6, "more than 65536 Taylor substeps"),
        # some 1300 substeps, which would pass on a constant segment, of weight 81
        (random_time_varying(2, 1.0, p=1.0, degree=8, coupling=200.0), 1e-10, "more than 65536 Taylor substeps"),
        # a refused segment stops the run before an earlier one is integrated
        (_CALM_THEN_WILD, 1e-10, "more than 65536 Taylor substeps"),
    ],
)
def test_unbounded_work_is_refused_before_any_step(monkeypatch, schedule, tol, message):
    counts = _count_builds(monkeypatch)
    psi = basis_state(schedule.n_qubits, 0)
    with wall_clock_bound(2.0):
        with pytest.raises(ToleranceUnreachable, match=re.escape(message)):
            propagate(schedule, psi, tol)
    assert counts["builds"] == 0


def test_full_unitary_trivials():
    assert np.array_equal(full_unitary(GateSchedule(2, ())), np.eye(4))
    rng = np.random.default_rng(13)
    u = haar_unitary(4, rng)
    g = GateSchedule(2, (Step((gate_from_unitary((0, 1), u),)),))
    assert np.max(np.abs(full_unitary(g) - u)) < 1e-12
    with pytest.raises(TooLarge):
        full_unitary(GateSchedule(7, ()))


def test_full_unitary_is_unitary():
    rng = np.random.default_rng(15)
    g = random_gate_schedule(4, rng)
    assert linalg.is_unitary(full_unitary(g), 1e-10)
    s = random_graph(3, p=0.8, seed=3)
    assert linalg.is_unitary(full_unitary(s, 1e-9), 1e-8)


def test_compiled_schedule_runs_close_to_continuous():
    s = chain(4, 1.0, 0.5)
    gates, _ = compile(s, 0.05)
    psi = basis_state(4, 0b0101)
    a = propagate(gates, psi)
    b = propagate(s, psi, 1e-10)
    assert np.max(np.abs(a - b)) < 0.05


def test_variance_eigenstate_zero():
    psi = basis_state(4, 0)
    obs = MeanFieldObservable.pauli(4, "z")
    assert abs(variance(psi, obs)) < 1e-12


def test_variance_ghz():
    for n in (3, 5):
        psi = ghz_amplitudes(n)
        obs = MeanFieldObservable.pauli(n, "z")
        assert abs(variance(psi, obs) - n * n) < 1e-9


def test_variance_uniform_product():
    n = 5
    plus = np.full(2, 1 / np.sqrt(2), dtype=complex)
    psi = product_state([plus] * n)
    obs = MeanFieldObservable.pauli(n, "z")
    assert abs(variance(psi, obs) - n) < 1e-9


def test_variance_of_product_states_grows_linearly():
    # cross-covariances vanish for product states, so V <= n for norm-1 factors
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        qubits = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        psi = product_state(qubits)
        obs = MeanFieldObservable.random(n, seed=int(rng.integers(0, 1000)))
        assert variance(psi, obs) <= n + 1e-9


def test_variance_matches_dense_oracle():
    rng = np.random.default_rng(17)
    n = 3
    obs = MeanFieldObservable.random(n, seed=4)
    psi = haar_unitary(2**n, rng)[:, 0]
    a_dense = sum(embed_single_operator(obs.factors[j], n, j) for j in range(n))
    m1 = np.vdot(psi, a_dense @ psi).real
    m2 = np.vdot(psi, a_dense @ (a_dense @ psi)).real
    assert abs(variance(psi, obs) - (m2 - m1 * m1)) < 1e-10
    with pytest.raises(DimensionMismatch):
        variance(psi, MeanFieldObservable.pauli(4, "z"))


def test_moments_match_pairwise_double_sum():
    rng = np.random.default_rng(19)
    n = 6
    for trial in range(5):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = amps / np.linalg.norm(amps)
        obs = MeanFieldObservable.random(n, seed=trial)
        images = [embed_single_operator(obs.factors[j], n, j) @ psi for j in range(n)]
        m1 = sum(np.vdot(psi, img).real for img in images)
        m2 = sum(np.vdot(a, b).real for a in images for b in images)
        got1, got2 = moments(psi, obs)
        assert abs(got1 - m1) < 1e-12
        assert abs(got2 - m2) < 1e-12


def test_moments_match_kron_built_observable_at_every_qubit():
    # a random factor on one qubit and the identity (Hermitian, norm 1) on the
    # others puts each qubit position through moments on its own
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = amps / np.linalg.norm(amps)
        factors = MeanFieldObservable.random(n, seed=n).factors
        cases = [factors] + [tuple(factors[j] if q == j else np.eye(2) for q in range(n)) for j in range(n)]
        for case in cases:
            dense = sum(
                reduce(np.kron, [case[j] if q == j else np.eye(2) for q in range(n)]) for j in range(n)
            )
            image = dense @ psi
            got1, got2 = moments(psi, MeanFieldObservable(case))
            assert abs(got1 - np.vdot(psi, image).real) < 1e-12
            assert abs(got2 - np.vdot(image, image).real) < 1e-12


@pytest.mark.parametrize("n_observable", [5, 2])
def test_moments_refuse_an_observable_on_another_register(n_observable):
    # 5 factors on a 3-qubit state would drop two; 2 would leave qubit 2 without one
    with pytest.raises(DimensionMismatch, match="^observable on %d qubits, state on 3$" % n_observable):
        moments(basis_state(3, 0), MeanFieldObservable.pauli(n_observable, "z"))


def test_observable_validation():
    z = np.diag([1.0, -1.0])
    with pytest.raises(BadParams, match="^observable factors must be 2x2 Hermitian$"):
        MeanFieldObservable((z, np.eye(3)))
    with pytest.raises(BadParams, match="^observable factors must be 2x2 Hermitian$"):
        MeanFieldObservable((z, np.array([[0, 1], [0, 0]])))
    with pytest.raises(BadParams, match="^observable factors must have operator norm 1$"):
        MeanFieldObservable((z, np.diag([2.0, -2.0])))
    obs = MeanFieldObservable.random(4, seed=0)
    for f in obs.factors:
        assert abs(np.linalg.norm(f, 2) - 1.0) < 1e-10


def test_random_observable_matches_per_qubit_draws():
    for n in (2, 5, 8):
        for seed in (0, 1, 7, 123456789):
            got = MeanFieldObservable.random(n, seed=seed).factors
            assert np.array_equal(np.array(got), np.array(per_qubit_observable_factors(n, seed)))


def test_product_state():
    psi = product_state([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert psi.shape == (4,)
    assert abs(psi[0b01] - 1.0) < 1e-12
    # each vector is normalized once and keeps its phase
    vectors = [np.array([3.0, 4.0j]), np.array([-1j, 1.0]), np.array([0.5 - 2j, -0.25])]
    expected = reduce(np.kron, [v / np.linalg.norm(v) for v in vectors])
    assert np.array_equal(product_state(vectors), expected)
    with pytest.raises(TooLarge, match="state vectors are limited to 18 qubits, got 40"):
        product_state([[1.0, 0.0]] * 40)
