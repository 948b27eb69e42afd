"""State-vector simulation of gate schedules and reference integration of
the continuous dynamics.

Convention: qubit 0 is the most significant bit of the basis index, so a
state reshaped to (2,)*n has qubit q on axis q.  Gates are applied through
tensor contractions on the two relevant axes; a gate schedule's 2^n x 2^n
operator is never materialized.

The reference integrator propagates d psi/dt = -i H(t) psi for a single
state (``evolve_continuous``) or the columns of the identity
(``full_unitary``), one segment after the other.  A segment of length L
gets the share tol * L / T of the tolerance, which must be finite and at
least 1e-12.  On a segment, -i H(t) = sum_d t^d G_d, where G_d comes from
the degree-d slice of the segment's (terms, 16, degree + 1) coefficient
array, and the segment builds this map once:

- A constant segment is propagated by a truncated Taylor series of
  exp(L G_0) applied to the array (Al-Mohy & Higham, SIAM J. Sci. Comput.
  33, 2011), with no eigendecomposition.  Every Pauli product has norm 1,
  so nu = L * sum |coefficients| bounds ||L G_0||.  The segment takes
  s = ceil(nu) substeps of norm at most 1, and each is a Taylor polynomial
  of the smallest order whose remainder bound keeps the s substeps within
  share/4 together.
- A time-varying segment runs classic fixed-step RK4, doubling its step
  count until its endpoint moves by less than share/4.  It starts from the
  count of steps of length T/16 that cover it, doubled until the norm bound
  keeps the first pass inside RK4's stability region.

The work is bounded before the first step, for the whole schedule: the
constant segments take at most ``MAX_TAYLOR_SUBSTEPS`` substeps in all,
and the time-varying ones at most ``MAX_RK4_STEPS`` RK4 steps in all, which
caps their step halvings (at most ``MAX_STEP_HALVINGS``).  A schedule over
either cap, or with a time-varying segment whose share/4 is below the
rounding that two RK4 passes show, is refused with ``ToleranceUnreachable``.

Up to ``DENSE_GENERATOR_MAX_QUBITS`` qubits each G_d is built as a dense
matrix, so an operator application costs one matrix product per degree; on
larger registers each pair matrix of ``Segment.matrices_at`` is contracted
on its two axes, which needs no 4^n memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from . import linalg
from .compiler import Gate, GateSchedule
from .errors import (
    BadParams,
    DimensionMismatch,
    IndexOutOfRange,
    NormDrift,
    NotUnitary,
    ToleranceUnreachable,
    TooLarge,
)
from .hamiltonian import PAULI_PRODUCTS, HamiltonianSchedule

FULL_UNITARY_MAX_QUBITS = 6
# Up to this size the integrator applies a segment's generator as dense
# 2^n x 2^n matrices, one per polynomial degree.  Speed: one matrix product
# beats one tensor contraction per pair term up to 9 qubits (an 8-qubit RK4
# pass is about 7x faster) and loses from 10 qubits on, where the products
# cost 4^n.  Memory: each matrix takes 16 * 4^n bytes, 4 MB at 9 qubits but
# 64 MB at 11.  One segment's matrices are held at a time, built once per
# segment.
DENSE_GENERATOR_MAX_QUBITS = 9
# convergence_study keeps a block of 20 random states and their 20 evolved
# images, and RK4 holds about six more copies of the state it integrates:
# some 46 columns of 2^n amplitudes at 16 bytes, about 0.2 GB at 18 qubits.
STATE_MAX_QUBITS = 18
NORM_DRIFT_LIMIT = 1e-6
MAX_STEP_HALVINGS = 24
# RK4's stability region reaches 2 sqrt(2) ~ 2.83 on the imaginary axis: a
# time-varying segment's first pass takes steps whose length times the norm
# bound is at most this.
RK4_STABILITY_LIMIT = 2.8
# Two RK4 passes over a segment differ by up to about 7e-15 in rounding
# alone (measured on 2 to 6 qubits, states and identity blocks), so a
# time-varying segment whose comparison target share/4 is below 32 eps is
# refused: halving could not reach it.
RK4_MIN_SHARE = 128 * np.finfo(np.float64).eps
# Work caps for one schedule.  A Taylor substep of norm at most 1 takes about
# 20 operator applications at most, and an RK4 step 4 derivative
# evaluations, so each cap stands for about a million applications.
MAX_TAYLOR_SUBSTEPS = 2**16
MAX_RK4_STEPS = 2**18
MIXED_BRANCH_CAP = 1024
BRANCH_CUTOFF = 1e-12  # mixture weights at or below this drop out of a product state

__all__ = [
    "FULL_UNITARY_MAX_QUBITS",
    "STATE_MAX_QUBITS",
    "MeanFieldObservable",
    "ProductState",
    "StateVector",
    "apply_gate",
    "check_tolerance",
    "evolve_continuous",
    "full_unitary",
    "mixed_variance",
    "moments",
    "run_schedule",
    "variance",
]


def check_tolerance(tol: float):
    """Raise ``BadParams`` unless ``tol`` is a finite integrator tolerance >= 1e-12."""
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise BadParams(f"integrator tolerance must be a finite number >= 1e-12, got {tol}")


def _check_state_size(n_qubits: int):
    if n_qubits > STATE_MAX_QUBITS:
        raise TooLarge(f"state vectors are limited to {STATE_MAX_QUBITS} qubits, got {n_qubits}")


class StateVector:
    """2^n complex amplitudes, unit norm; qubit 0 = most significant bit."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**n_qubits,):
            raise DimensionMismatch(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_DRIFT_LIMIT:
            raise NormDrift(f"state norm {norm} drifted beyond {NORM_DRIFT_LIMIT}")
        self.n_qubits = n_qubits
        self.amplitudes = amps

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < 2**n_qubits:
            raise IndexOutOfRange(f"basis index {index} outside register of {n_qubits} qubits")
        _check_state_size(n_qubits)
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes / self.norm())

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _apply_pair_matrix(mat4, array, n, k, l):
    """Apply a 4x4 operator to axes (k, l); array may carry a column axis."""
    shape = (2,) * n + array.shape[1:]
    tensor = array.reshape(shape)
    u = np.asarray(mat4).reshape(2, 2, 2, 2)
    out = np.tensordot(u, tensor, axes=([2, 3], [k, l]))
    out = np.moveaxis(out, [0, 1], [k, l])
    return out.reshape(array.shape)


def _apply_single_matrix(mat2, array, n, q):
    shape = (2,) * n + array.shape[1:]
    tensor = array.reshape(shape)
    out = np.tensordot(np.asarray(mat2), tensor, axes=([1], [q]))
    out = np.moveaxis(out, 0, q)
    return out.reshape(array.shape)


def apply_gate(psi: StateVector, gate: Gate) -> StateVector:
    k, l = gate.pair
    if l >= psi.n_qubits:
        raise IndexOutOfRange(f"gate pair {gate.pair} outside register of {psi.n_qubits} qubits")
    return StateVector(
        psi.n_qubits, _apply_pair_matrix(gate.unitary, psi.amplitudes, psi.n_qubits, k, l)
    )


def run_schedule(psi: StateVector, g: GateSchedule) -> StateVector:
    """Apply the steps in order; gates within a step commute by disjointness."""
    if g.n_qubits != psi.n_qubits:
        raise DimensionMismatch(f"schedule is on {g.n_qubits} qubits, state on {psi.n_qubits}")
    amps = psi.amplitudes
    for step in g.steps:
        for gate in step.gates:
            amps = _apply_pair_matrix(gate.unitary, amps, psi.n_qubits, *gate.pair)
    return StateVector(psi.n_qubits, amps)


def _derivative(seg, t, array, n):
    """-i H(t) array on one segment, one tensor contraction per pair term."""
    out = np.zeros_like(array)
    for (k, l), mat in zip(seg.pairs, seg.matrices_at(t)):
        out += _apply_pair_matrix(mat, array, n, k, l)
    return -1j * out


def _dense_generators(seg, n):
    """Stack [G_0, G_1, ...] of 2^n x 2^n matrices with -i H(t) = sum_d t^d G_d.

    Entry (i, j) of a pair term's embedded operator is nonzero only where i
    and j agree on every qubit outside the pair: i = rest + bits(a) and
    j = rest + bits(b) for the term's 4x4 entry (a, b), where ``rest`` runs
    over the 2^(n-2) indices with both pair bits zero.  So each term
    scatters its 16 entries 2^(n-2) times; terms sharing a qubit share
    entries.
    """
    dim = 2**n
    if not seg.pairs:
        return np.zeros((1, dim, dim), dtype=np.complex128)
    degrees = seg.tracks.shape[2]
    blocks = -1j * np.tensordot(seg.tracks, PAULI_PRODUCTS, axes=(1, 0))  # (terms, degrees, 4, 4)
    shifts = n - 1 - np.array(seg.pairs)  # bit positions of k and l; k's is the higher
    k, l = shifts[:, :1], shifts[:, 1:]
    rest = np.arange(dim // 4)
    for p in (l, k):  # insert a zero bit at l's position, then at k's
        rest = ((rest >> p) << (p + 1)) | (rest & ((1 << p) - 1))
    a = np.arange(4)
    bits = ((a >> 1) << k) | ((a & 1) << l)  # (terms, 4): the pair bits of 4x4 index a
    offsets = bits[:, :, None] * dim + bits[:, None, :]  # (terms, 4, 4): entry (a, b) at rest 0
    flat = (rest * (dim + 1))[:, :, None] + offsets.reshape(-1, 1, 16)  # (terms, 2^(n-2), 16)
    gens = np.zeros((degrees, dim * dim), dtype=np.complex128)
    for d in range(degrees):  # add.at is far faster on 1-D indices than on (terms, 2^(n-2), 16) ones
        values = np.broadcast_to(blocks[:, d].reshape(-1, 1, 16), flat.shape)
        np.add.at(gens[d], flat.ravel(), values.ravel())
    return gens.reshape(degrees, dim, dim)


def _dense_derivative(gens, t, array):
    """sum_d t^d (G_d @ array), by Horner's rule in t."""
    out = gens[-1] @ array
    for g in gens[-2::-1]:
        out = out * t + g @ array
    return out


def _segment_derivative(seg, n):
    """The map (t, array) -> -i H(t) array on one segment."""
    if n > DENSE_GENERATOR_MAX_QUBITS:
        return lambda t, array: _derivative(seg, t, array, n)
    gens = _dense_generators(seg, n)
    return lambda t, array: _dense_derivative(gens, t, array)


def _rk4(f, seg, steps, array):
    """``steps`` classic RK4 steps of the map ``f`` across ``seg``."""
    h = seg.length / steps
    for i in range(steps):
        t0 = seg.t_start + i * h
        k1 = f(t0, array)
        k2 = f(t0 + h / 2, array + (h / 2) * k1)
        k3 = f(t0 + h / 2, array + (h / 2) * k2)
        k4 = f(t0 + h, array + h * k3)
        array = array + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return array


def _rk4_halving(f, seg, steps, share, halvings, array):
    """Double the RK4 step count from ``steps``, at most ``halvings`` times,
    until the endpoint moves by less than share/4."""
    prev = _rk4(f, seg, steps, array)
    for _ in range(halvings):
        steps *= 2
        cur = _rk4(f, seg, steps, array)
        diff = cur - prev
        if diff.ndim == 1:
            err = float(np.linalg.norm(diff))
        else:
            err = float(np.max(np.linalg.norm(diff, axis=0)))
        if err < share / 4:
            return cur
        prev = cur
    raise ToleranceUnreachable(
        f"step halving cap {halvings} reached without meeting the tolerance share "
        f"{share:.3g} of segment [{seg.t_start}, {seg.t_end}]"
    )


def _taylor(f, seg, substeps, order, array):
    """exp(L G_0) array as ``substeps`` Taylor polynomials of degree ``order`` in (L / substeps) G_0."""
    tau = seg.length / substeps
    for _ in range(substeps):
        term = total = array
        for j in range(1, order + 1):
            term = f(seg.t_start, term) * (tau / j)
            total = total + term
        array = total
    return array


def _norm_bound(seg):
    """sum |c_d| t_max^d over the segment's coefficients, t_max = max(|t_start|, |t_end|).

    Every Pauli product has norm 1, so this bounds ||H(t)|| on the segment
    (inf or nan when the powers overflow).
    """
    t_max = max(abs(seg.t_start), abs(seg.t_end))
    with np.errstate(all="ignore"):
        return float(np.abs(seg.tracks).sum(axis=(0, 1)) @ t_max ** np.arange(seg.tracks.shape[2]))


def _taylor_plan(nu, share):
    """Substeps s and order m for exp(L G_0) with ||L G_0|| <= nu, within share/4.

    s = ceil(nu) substeps of norm theta = nu / s <= 1; m is the smallest
    order whose remainder bound theta^(m+1) / (m+1)! e^theta is at most
    share / (4 s), so the s truncations err by at most share/4 together.
    """
    substeps = math.ceil(nu)
    if substeps == 0:
        return 0, 0
    theta = nu / substeps
    order, remainder = 0, theta * math.exp(theta)
    while remainder > share / (4 * substeps):
        order += 1
        remainder *= theta / (order + 1)
    return substeps, order


def _rk4_start(seg, nu, h0):
    """The steps of length h0 that cover ``seg``, doubled until nu / steps is
    inside RK4's stability region; inf when that takes over ``MAX_RK4_STEPS``."""
    if not nu <= RK4_STABILITY_LIMIT * MAX_RK4_STEPS:
        return math.inf
    steps = max(1, math.ceil(seg.length / h0))
    while nu > RK4_STABILITY_LIMIT * steps:
        steps *= 2
    return steps


def _integrate_adaptive(s: HamiltonianSchedule, array, tol: float):
    """Propagate segment by segment, each within its share tol * L / T of the tolerance.

    The whole schedule's work is bounded before the first step: the
    constant segments' Taylor substeps and the time-varying segments' first
    comparisons must fit their caps, and what ``MAX_RK4_STEPS`` leaves sets
    how often each time-varying segment may halve its step.  Each segment
    builds its derivative once.
    """
    n = s.n_qubits
    h0 = s.total_time / 16.0
    plans = []
    substeps = starts = 0
    for seg in s.segments:
        share = tol * (seg.length / s.total_time)
        nu = seg.length * _norm_bound(seg)  # inf or nan when the bound overflows
        if seg.is_constant:
            # substeps is whole, so this holds iff substeps + ceil(nu) is within the cap
            if not substeps + nu <= MAX_TAYLOR_SUBSTEPS:
                raise ToleranceUnreachable(
                    f"the constant segments need more than {MAX_TAYLOR_SUBSTEPS} Taylor substeps"
                )
            plan = _taylor_plan(nu, share)
            substeps += plan[0]
        else:
            if share < RK4_MIN_SHARE:
                raise ToleranceUnreachable(
                    f"segment [{seg.t_start}, {seg.t_end}] gets the tolerance share {share:.3g}, "
                    f"below the {RK4_MIN_SHARE:.3g} that RK4 step halving can resolve"
                )
            plan = (_rk4_start(seg, nu, h0), share)
            starts += plan[0]
        plans.append((seg, plan))
    # the first comparison runs 1 + 2 times the starting steps
    if not 3 * starts <= MAX_RK4_STEPS:
        raise ToleranceUnreachable(
            f"the time-varying segments need more than {MAX_RK4_STEPS} RK4 steps to run stably"
        )
    # h halvings run at most 2^(h+1) - 1 times the starting steps
    halvings = 1
    while halvings < MAX_STEP_HALVINGS and starts * ((4 << halvings) - 1) <= MAX_RK4_STEPS:
        halvings += 1
    for seg, plan in plans:
        if seg.is_constant and plan[0] == 0:
            continue  # H = 0: the array stays as it is
        f = _segment_derivative(seg, n)
        if seg.is_constant:
            array = _taylor(f, seg, *plan, array)
        else:
            array = _rk4_halving(f, seg, *plan, halvings, array)
        del f  # one segment's generators at a time
    return array


def evolve_continuous(psi: StateVector, s: HamiltonianSchedule, tol: float = 1e-10) -> StateVector:
    """Integrate the Schrodinger equation for the schedule's full duration.

    The result is renormalized (drift is checked first and must stay below
    ``NORM_DRIFT_LIMIT``, otherwise ``NormDrift`` is raised).
    """
    if s.n_qubits != psi.n_qubits:
        raise DimensionMismatch(f"schedule is on {s.n_qubits} qubits, state on {psi.n_qubits}")
    check_tolerance(tol)
    final = _integrate_adaptive(s, psi.amplitudes, tol)
    norm = float(np.linalg.norm(final))
    if abs(norm - 1.0) > NORM_DRIFT_LIMIT:
        raise NormDrift(f"integration drifted the norm to {norm}")
    return StateVector(psi.n_qubits, final / norm)


def full_unitary(x, tol: float = 1e-10) -> np.ndarray:
    """Implemented unitary of a gate or Hamiltonian schedule, n <= 6 qubits."""
    check_tolerance(tol)
    n = x.n_qubits
    if n > FULL_UNITARY_MAX_QUBITS:
        raise TooLarge(f"full unitaries are limited to {FULL_UNITARY_MAX_QUBITS} qubits")
    dim = 2**n
    u = np.eye(dim, dtype=np.complex128)
    if isinstance(x, GateSchedule):
        for step in x.steps:
            for gate in step.gates:
                u = _apply_pair_matrix(gate.unitary, u, n, *gate.pair)
    elif isinstance(x, HamiltonianSchedule):
        u = _integrate_adaptive(x, u, tol)
    else:
        raise BadParams(f"cannot extract a unitary from {type(x).__name__}")
    if not linalg.is_unitary(u, max(10 * tol, 1e-12)):
        raise NotUnitary("extracted matrix failed the unitarity check")
    return u


def _norms(stack):
    """Operator norms of a stack of Hermitian matrices, by one ``eigvalsh``."""
    return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1, initial=0.0)


@dataclass(frozen=True)
class MeanFieldObservable:
    """Sum of one single-qubit Hermitian observable of norm 1 per qubit."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.complex128) for f in self.factors)
        stack = np.reshape(factors, (-1, 2, 2)) if all(f.shape == (2, 2) for f in factors) else None
        if stack is None or not linalg.is_hermitian(stack, 1e-10):
            raise BadParams("observable factors must be 2x2 Hermitian")
        if np.any(np.abs(_norms(stack) - 1.0) > 1e-10):
            raise BadParams("observable factors must have operator norm 1")
        object.__setattr__(self, "factors", factors)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def pauli(cls, n_qubits: int, axis: str = "z") -> "MeanFieldObservable":
        mats = {
            "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
            "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
            "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
        }
        if axis not in mats:
            raise BadParams(f"axis must be one of {sorted(mats)}")
        return cls((mats[axis],) * n_qubits)

    @classmethod
    def random(cls, n_qubits: int, seed: int = 0) -> "MeanFieldObservable":
        x = np.random.default_rng(seed).normal(size=(n_qubits, 2, 2, 2))  # per qubit: real, imaginary part
        h = x[:, 0] + 1j * x[:, 1]
        h = (h + np.swapaxes(h, -1, -2).conj()) / 2
        norms = _norms(h)
        if np.any(norms <= 1e-3):
            raise RuntimeError("random observable draw degenerated")
        return cls(tuple(h / norms[:, None, None]))


def moments(psi: StateVector, a: MeanFieldObservable):
    """First and second moment of the mean-field observable in a pure state.

    With A = sum_j A_j Hermitian, <A^2> = ||A psi||^2, so the second moment
    needs one image per qubit, not a product per pair of qubits.
    """
    n = psi.n_qubits
    amps = psi.amplitudes
    image = np.zeros_like(amps)
    for j in range(n):
        image += _apply_single_matrix(a.factors[j], amps, n, j)
    m1 = float(np.vdot(amps, image).real)
    m2 = float(np.vdot(image, image).real)
    return m1, m2


def variance(state, a: MeanFieldObservable) -> float:
    """tr(s a^2) - tr(s a)^2 for a pure state or an unevolved product state."""
    if isinstance(state, ProductState):
        return mixed_variance(state, a)
    if state.n_qubits != a.n_qubits:
        raise DimensionMismatch(
            f"observable on {a.n_qubits} qubits, state on {state.n_qubits}"
        )
    m1, m2 = moments(state, a)
    return m2 - m1 * m1


class ProductState:
    """Per-qubit 2x2 density matrices (pure states are the rank-1 case)."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        fs = tuple(np.asarray(f, dtype=np.complex128) for f in factors)
        for f in fs:
            if f.shape != (2, 2) or not linalg.is_hermitian(f, 1e-10):
                raise BadParams("product-state factors must be 2x2 Hermitian")
            if abs(float(np.trace(f).real) - 1.0) > 1e-12:
                raise BadParams("product-state factors must have unit trace")
            if float(np.min(linalg.hermitian_eig(f).eigenvalues)) < -1e-12:
                raise BadParams("product-state factors must be positive semidefinite")
        self.factors = fs

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def pure(cls, vectors) -> "ProductState":
        factors = []
        for v in vectors:
            v = np.asarray(v, dtype=np.complex128)
            v = v / np.linalg.norm(v)
            factors.append(np.outer(v, v.conj()))
        return cls(tuple(factors))

    @classmethod
    def uniform(cls, n_qubits: int, rho) -> "ProductState":
        return cls((np.asarray(rho, dtype=np.complex128),) * n_qubits)

    def branches(self):
        """Decompose into pure product branches (probability, StateVector)."""
        _check_state_size(self.n_qubits)
        options = []
        for f in self.factors:
            w, v = linalg.hermitian_eig(f)
            opts = [(float(w[i]), v[:, i]) for i in range(2) if w[i] > BRANCH_CUTOFF]
            options.append(opts)
        count = 1
        for opts in options:
            count *= len(opts)
        if count > MIXED_BRANCH_CAP:
            raise TooLarge(f"{count} product branches exceed the cap {MIXED_BRANCH_CAP}")
        out = []
        for combo in _iproduct(*options):
            prob = 1.0
            vec = np.array([1.0 + 0.0j])
            for p, v in combo:
                prob *= p
                vec = np.kron(vec, v)
            out.append((prob, StateVector(len(self.factors), vec)))
        return out


def mixed_variance(state: ProductState, a: MeanFieldObservable, evolve=None) -> float:
    """Variance of a mean-field observable in an (optionally evolved) product state.

    ``evolve`` maps a pure StateVector to its evolved image; moments are
    combined across branches before the variance is formed.
    """
    if state.n_qubits != a.n_qubits:
        raise DimensionMismatch(
            f"observable on {a.n_qubits} qubits, state on {state.n_qubits}"
        )
    m1 = 0.0
    m2 = 0.0
    for prob, branch in state.branches():
        psi = evolve(branch) if evolve is not None else branch
        b1, b2 = moments(psi, a)
        m1 += prob * b1
        m2 += prob * b2
    return m2 - m1 * m1
