"""State-vector simulation of gate schedules and reference integration of
the continuous dynamics.

Convention: qubit 0 is the most significant bit of the basis index, so a
state reshaped to (2,)*n has qubit q on axis q.  Gates are applied through
tensor contractions on the two relevant axes; a gate schedule's 2^n x 2^n
operator is never materialized.

A state is a plain array of 2^n complex amplitudes, built by
``basis_state`` or ``product_state``.  ``propagate``, the one path that
evolves a state, carries a state (2^n,) or a block of states (2^n, k)
through a gate schedule, gate by gate, or through a Hamiltonian schedule,
by integrating d psi/dt = -i H(t) psi one segment after the other.  For
either kind the tolerance must be at least 1e-12 and below 1, and a
segment of length L gets the share tol * L / T of it.  Every column, a
unit vector at the start, must end within 1e-6 of norm 1 after gates, and
within max(1e-6, tol) after an integration (from tol = 1 on, that would
pass a column of norm 2).  On a segment, -i H(t) = sum_d t^d G_d,
where G_d comes from the degree-d slice of the segment's (terms, 16,
degree + 1) coefficient array, and the segment builds this map once.

Every segment is propagated by the classical Taylor-series method, with
no eigendecomposition; on a constant segment it is a truncated Taylor
series of exp(L G_0) (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).
Every Pauli product has norm 1, so nu = L * sum |c_d| t_max^d over the
segment's coefficients bounds the integral of ||H(t)|| over it.  The
segment takes s = ceil(nu) substeps, and each is a Taylor polynomial whose
truncation is within share / (4 s), so the s substeps are within share/4
together.  The series of a substep stops once a rigorous bound on its rest,
taken from the norms of its last terms, is within that budget (the
term-norm test of Al-Mohy & Higham's ``expmv``, made a bound here), and at
the latest at the order whose majorant remainder bound meets it.  Each
order applies every G_d once.

The work is bounded before the first step, for the whole schedule: a
substep of a degree-D segment counts (D + 1)^2, and a schedule whose
substeps count over ``MAX_TAYLOR_SUBSTEPS`` in all is refused with
``ToleranceUnreachable``, unless a pair term is beyond the float range at
an end of its segment, which raises ``TooLarge`` naming the pair.

Up to ``DENSE_GENERATOR_MAX_QUBITS`` qubits each G_d is built as a dense
matrix, so an operator application costs one matrix product; on larger
registers each term's degree-d pair matrix is contracted on its two axes,
which needs no 4^n memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .compiler import GateSchedule
from .errors import (
    BadParams,
    DimensionMismatch,
    NormDrift,
    NotUnitary,
    OutOfRange,
    ToleranceUnreachable,
    TooLarge,
)
from .hamiltonian import PAULI_MATRICES, HamiltonianSchedule, pauli_matrix

FULL_UNITARY_MAX_QUBITS = 6
# Up to this size the integrator applies a segment's generator as dense
# 2^n x 2^n matrices, one per polynomial degree.  Speed: one matrix product
# beats one tensor contraction per pair term up to 9 qubits (an 8-qubit
# operator application is about 7x faster) and loses from 10 qubits on,
# where the products cost 4^n.  Memory: each matrix takes 16 * 4^n bytes,
# 4 MB at 9 qubits but 64 MB at 11.  One segment's matrices are held at a
# time, built once per segment.
DENSE_GENERATOR_MAX_QUBITS = 9
# convergence_study integrates a block of 20 random states at once, and on
# a degree-8 segment the Taylor recurrence holds about 37 copies of the block
# it integrates (5 on a constant segment): some 760 columns of 2^n amplitudes
# at 16 bytes, about 3.2 GB at 18 qubits (0.5 GB on constant segments).
STATE_MAX_QUBITS = 18
NORM_DRIFT_LIMIT = 1e-6
# Work cap for one schedule.  A Taylor substep of a constant segment takes
# about 20 operator applications at most, so the cap stands for about a
# million applications.
MAX_TAYLOR_SUBSTEPS = 2**16

__all__ = [
    "FULL_UNITARY_MAX_QUBITS",
    "STATE_MAX_QUBITS",
    "MeanFieldObservable",
    "basis_state",
    "check_state_size",
    "check_tolerance",
    "full_unitary",
    "moments",
    "product_state",
    "propagate",
    "variance",
]


def check_tolerance(tol: float):
    """Raise ``BadParams`` unless ``tol`` is an integrator tolerance in [1e-12, 1)."""
    if not (1e-12 <= tol < 1):
        raise BadParams(f"integrator tolerance must be a finite number >= 1e-12 and below 1, got {tol}")


def check_state_size(n_qubits: int):
    """Raise ``TooLarge`` for a register past ``STATE_MAX_QUBITS`` qubits."""
    if n_qubits > STATE_MAX_QUBITS:
        raise TooLarge(f"state vectors are limited to {STATE_MAX_QUBITS} qubits, got {n_qubits}")


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """The 2^n amplitudes of basis state ``index``; qubit 0 = most significant bit."""
    check_state_size(n_qubits)  # before 2**n_qubits, which takes minutes past 10^10 qubits
    if not 0 <= index < 2**n_qubits:
        raise OutOfRange(f"basis index {index} outside register of {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def product_state(vectors) -> np.ndarray:
    """The product state of one 2-vector per qubit, qubit 0 first.

    Each vector is divided by its norm and keeps its phase; the size cap is
    checked before any amplitude is allocated.
    """
    check_state_size(len(vectors))
    amps = np.ones(1, dtype=np.complex128)
    for v in np.asarray(vectors, dtype=np.complex128):
        amps = np.kron(amps, v / np.linalg.norm(v))
    return amps


def _apply_pair_stack(mats, stack, n, k, l):
    """sum_d of the 4x4 operator mats[d] applied to axes (k, l) of stack[d];
    each stack[d] may carry a column axis."""
    tensor = stack.reshape((len(mats),) + (2,) * n + stack.shape[2:])
    u = mats.reshape(-1, 2, 2, 2, 2)
    out = np.tensordot(u, tensor, axes=([0, 3, 4], [0, k + 1, l + 1]))
    out = np.moveaxis(out, [0, 1], [k, l])
    return out.reshape(stack.shape[1:])


@functools.cache
def _scatter_offsets(n, k, l):
    """Flat indices into a 2^n x 2^n matrix of the embedded entries of a
    pair term on (k, l): row r holds entry (a, b) of the term's 4x4 at
    position 4a + b, for the r-th of the 2^(n-2) settings of the other
    qubits.

    Entry (i, j) of the embedded operator is nonzero only where i and j
    agree on every qubit outside the pair: i = rest + bits(a) and
    j = rest + bits(b), where ``rest`` runs over the indices with both pair
    bits zero.  The table depends on (n, k, l) alone and is built once; it
    is read-only because every caller shares it.
    """
    dim = 2**n
    hi, lo = n - 1 - k, n - 1 - l  # bit positions of k and l; k's is the higher
    rest = np.arange(dim // 4)
    for p in (lo, hi):  # insert a zero bit at l's position, then at k's
        rest = ((rest >> p) << (p + 1)) | (rest & ((1 << p) - 1))
    a = np.arange(4)
    bits = ((a >> 1) << hi) | ((a & 1) << lo)  # the pair bits of 4x4 index a
    flat = (rest * (dim + 1))[:, None] + (bits[:, None] * dim + bits[None, :]).reshape(16)
    flat.flags.writeable = False
    return flat


def _dense_generators(pairs, blocks, n):
    """Stack [G_0, G_1, ...] of 2^n x 2^n matrices with -i H(t) = sum_d t^d G_d,
    from the (terms, degree + 1, 4, 4) blocks of the terms on ``pairs``.

    Each term scatters its 16 entries 2^(n-2) times, through the
    ``_scatter_offsets`` of its pair; terms sharing a qubit share entries.
    """
    dim = 2**n
    if not pairs:
        return np.zeros((1, dim, dim), dtype=np.complex128)
    degrees = blocks.shape[1]
    flat = np.stack([_scatter_offsets(n, k, l) for k, l in pairs])  # (terms, 2^(n-2), 16)
    gens = np.zeros((degrees, dim * dim), dtype=np.complex128)
    for d in range(degrees):  # add.at is far faster on 1-D indices than on (terms, 2^(n-2), 16) ones
        values = np.broadcast_to(blocks[:, d].reshape(-1, 1, 16), flat.shape)
        np.add.at(gens[d], flat.ravel(), values.ravel())
    return gens.reshape(degrees, dim, dim)


def _segment_generator(seg, n):
    """The map xs -> sum_d G_d xs[d] on one segment, where -i H(t) = sum_d t^d G_d
    and xs stacks one array per polynomial degree.

    Each term's degree-d 4x4 block of -i H is built once, as one stack.  Up
    to ``DENSE_GENERATOR_MAX_QUBITS`` qubits the map is one product with
    [G_0 G_1 ...] scattered from those blocks; past it, one contraction per
    pair term of its blocks with xs.
    """
    blocks = -1j * pauli_matrix(seg.tracks.swapaxes(1, 2))  # (terms, degree + 1, 4, 4)
    if n <= DENSE_GENERATOR_MAX_QUBITS:
        gens = _dense_generators(seg.pairs, blocks, n)
        wide = gens.transpose(1, 0, 2).reshape(gens.shape[1], -1)
        return lambda xs: wide @ xs.reshape(-1, *xs.shape[2:])

    def apply(xs):
        out = np.zeros_like(xs[0])
        for (k, l), stack in zip(seg.pairs, blocks):
            out += _apply_pair_stack(stack, xs, n, k, l)
        return out

    return apply


def _largest_column_norm(x) -> float:
    """The norm of a state, or the largest column norm of a block of states."""
    if x.ndim == 1:
        return math.sqrt(np.vdot(x, x).real)  # a quarter of the cost of np.linalg.norm on 256 amplitudes
    return float(np.max(np.linalg.norm(x, axis=0)))


def _taylor(apply, seg, nu, share, array):
    """``array`` carried across ``seg``, of norm bound ``nu``, within ``share``/4.

    The plan of :func:`_taylor_plan` gives s substeps, each of majorant
    exponent at most theta = nu / s <= 1, and a cap on the order.  On the
    substep of length tau from t0, -i H(t0 + u) = sum_j u^j A_j with
    A_j = sum_{d >= j} C(d, j) t0^(d-j) G_d.  The scaled Taylor terms
    e_k = c_k tau^k of psi(t0 + u) = sum_k c_k u^k follow from e_0 = psi(t0) by
    e_{k+1} = tau / (k+1) * sum_{j <= min(k, D)} tau^j A_j e_{k-j}
            = tau / (k+1) * sum_d G_d (sum_{j <= min(d, k)} C(d, j) t0^(d-j) tau^j e_{k-j}),
    so each order applies every G_d once, to one combination of the last
    D + 1 terms.  A constant segment applies G_0 to e_k as it is.

    The series stops after order k once its rest is provably within
    share / (4 s), and at the planned order at the latest, so each
    substep's truncation is within share / (4 s), by the majorant of the
    plan or by this tail bound.  Since 0 <= t0 (a schedule starts at 0) and
    t0 + tau <= t_max, sum_j tau^(j+1) ||A_j|| <= tau sum_d ||G_d|| (t0 + tau)^d
    <= tau * ``_norm_bound`` = theta, so
    ||e_{k+1}|| <= theta / (k+1) * M_k, where M_k is the largest norm of
    the last min(k, D) + 1 terms (of a block's columns, the largest column
    norm).  The window's largest norm therefore shrinks by theta / (k+1)
    every D + 1 orders, and the rest of the series is at most
    (D + 1) M_k theta / (k + 1 - theta).  Each term's norm is taken once,
    when the term is made.
    """
    degrees = seg.tracks.shape[2]
    substeps, order = _taylor_plan(nu, share, degrees)
    theta, budget = nu / substeps, share / (4 * substeps)
    tau = seg.length / substeps
    for i in range(substeps):
        t0 = seg.t_start + i * tau
        weights = np.array(  # (d, j): C(d, j) t0^(d-j) tau^j, zero for j > d
            [[math.comb(d, j) * t0 ** (d - j) * tau**j if j <= d else 0.0 for j in range(degrees)] for d in range(degrees)]
        )
        recent = [array]  # e_k, e_(k-1), ...: the last ``degrees`` terms, newest first
        norms = [_largest_column_norm(array)]  # their norms, in the same order
        total = array
        for k in range(1, order + 1):
            if degrees == 1:
                xs = recent[0][None]
            else:
                xs = (weights[:, : len(recent)] @ np.reshape(recent, (len(recent), -1))).reshape(-1, *array.shape)
            term = apply(xs) * (tau / k)
            total = total + term
            recent = [term] + recent[: degrees - 1]
            norms = [_largest_column_norm(term)] + norms[: degrees - 1]
            if degrees * max(norms) * theta / (k + 1 - theta) <= budget:
                break
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


def _taylor_plan(nu, share, degrees):
    """Substeps s and order m for a segment of ``degrees`` polynomial
    degrees and norm bound nu = L * ``_norm_bound`` > 0, within share/4.

    s = ceil(nu) substeps, each of majorant exponent at most theta = nu / s
    <= 1.  Past order m = degrees * r - 1 the majorant series
    exp(sum_j b_j w^(j+1)), sum_j b_j <= theta, keeps only products of r or
    more of its Poisson factors' terms, so its tail is at most
    e^theta theta^r / r!.  r is the smallest count whose bound is at most
    share / (4 s), so the s truncations err by at most share/4 together.
    m is the cap: :func:`_taylor` stops a substep earlier once its own
    tail bound is within share / (4 s).
    """
    substeps = math.ceil(nu)
    theta = nu / substeps
    r, remainder = 1, theta * math.exp(theta)
    while remainder > share / (4 * substeps):
        r += 1
        remainder *= theta / r
    return substeps, degrees * r - 1


def _integrate_adaptive(s: HamiltonianSchedule, array, tol: float):
    """Propagate segment by segment, each within its share tol * L / T of the tolerance.

    The whole schedule's work is bounded before the first step: a substep
    of a degree-D segment takes at most (D + 1) r - 1 orders of D + 1
    operator applications each, where a constant segment's takes r - 1 of
    one, so it counts (D + 1)^2 against ``MAX_TAYLOR_SUBSTEPS``.  Each
    substep's truncation is within share / (4 s), by the majorant of
    :func:`_taylor_plan` or by the tail bound of :func:`_taylor`, which
    stops the series when its terms do.  Each segment builds its generators
    once.
    """
    plans = []
    work = 0
    for seg in s.segments:
        degrees = seg.tracks.shape[2]
        bound = _norm_bound(seg)
        if not math.isfinite(bound):  # TooLarge names a term beyond the float range at either end
            seg.matrices_at(seg.t_start)
            seg.matrices_at(seg.t_end)
        nu = seg.length * bound  # inf or nan when the bound overflows
        if not nu <= MAX_TAYLOR_SUBSTEPS or work + math.ceil(nu) * degrees**2 > MAX_TAYLOR_SUBSTEPS:
            raise ToleranceUnreachable(
                f"the schedule needs more than {MAX_TAYLOR_SUBSTEPS} Taylor substeps "
                "(a substep of a degree-d segment counts (d+1)^2)"
            )
        work += math.ceil(nu) * degrees**2
        plans.append((seg, nu, tol * (seg.length / s.total_time)))
    for seg, nu, share in plans:
        if nu == 0:
            continue  # H = 0: the array stays as it is
        apply = _segment_generator(seg, s.n_qubits)
        array = _taylor(apply, seg, nu, share, array)
        del apply  # one segment's generators at a time
    return array


def propagate(x, array, tol: float = 1e-10) -> np.ndarray:
    """``array``, one state (2^n,) or a block of states (2^n, k), carried through ``x``.

    ``tol`` is checked for either kind of schedule.  A ``GateSchedule``
    applies its steps in order, and every column, a unit vector at the
    start, must end within ``NORM_DRIFT_LIMIT`` of norm 1: gates promise no
    tolerance.  A ``HamiltonianSchedule`` is integrated to ``tol``, and
    every column must end within ``max(NORM_DRIFT_LIMIT, tol)`` of norm 1.
    A column beyond its limit raises ``NormDrift``; the columns are not
    renormalized.
    """
    if not isinstance(x, (GateSchedule, HamiltonianSchedule)):
        raise BadParams(f"cannot propagate through a {type(x).__name__}")
    n = x.n_qubits
    check_state_size(n)
    array = np.asarray(array, dtype=np.complex128)
    if array.ndim not in (1, 2) or array.shape[0] != 2**n:
        raise DimensionMismatch(f"expected 2^{n} rows of amplitudes, got an array of shape {array.shape}")
    check_tolerance(tol)
    if isinstance(x, GateSchedule):
        for step in x.steps:
            for gate in step.gates:
                array = _apply_pair_stack(gate.unitary[None], array[None], n, *gate.pair)
        limit, drift = NORM_DRIFT_LIMIT, "state norm {worst} drifted beyond {limit}"
    else:
        array = _integrate_adaptive(x, array, tol)
        limit, drift = max(NORM_DRIFT_LIMIT, tol), "integration drifted the norm to {worst}"
    norms = np.linalg.norm(array.reshape(len(array), -1), axis=0)
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])  # nan when any column is
    if not abs(worst - 1.0) <= limit:
        raise NormDrift(drift.format(worst=worst, limit=limit))
    return array


def full_unitary(x, tol: float = 1e-10) -> np.ndarray:
    """Implemented unitary of a gate or Hamiltonian schedule, n <= 6 qubits."""
    check_tolerance(tol)
    n = x.n_qubits
    if n > FULL_UNITARY_MAX_QUBITS:
        raise TooLarge(f"full unitaries are limited to {FULL_UNITARY_MAX_QUBITS} qubits")
    u = propagate(x, np.eye(2**n, dtype=np.complex128), tol)
    if not linalg.is_unitary(u, max(10 * tol, 1e-12)):
        raise NotUnitary("extracted matrix failed the unitarity check")
    return u


@dataclass(frozen=True)
class MeanFieldObservable:
    """Sum of one single-qubit Hermitian observable of norm 1 per qubit."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.complex128) for f in self.factors)
        stack = np.reshape(factors, (-1, 2, 2)) if all(f.shape == (2, 2) for f in factors) else None
        if stack is None or not linalg.is_hermitian(stack, 1e-10):
            raise BadParams("observable factors must be 2x2 Hermitian")
        if np.any(np.abs(linalg.hermitian_norms(stack) - 1.0) > 1e-10):
            raise BadParams("observable factors must have operator norm 1")
        object.__setattr__(self, "factors", factors)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def pauli(cls, n_qubits: int, axis: str = "z") -> "MeanFieldObservable":
        axes = ["x", "y", "z"]
        if axis not in axes:
            raise BadParams(f"axis must be one of {axes}")
        return cls((PAULI_MATRICES[1 + axes.index(axis)],) * n_qubits)

    @classmethod
    def random(cls, n_qubits: int, seed: int = 0) -> "MeanFieldObservable":
        x = np.random.default_rng(seed).normal(size=(n_qubits, 2, 2, 2))  # per qubit: real, imaginary part
        h = x[:, 0] + 1j * x[:, 1]
        h = (h + np.swapaxes(h, -1, -2).conj()) / 2
        norms = linalg.hermitian_norms(h)
        if np.any(norms <= 1e-3):
            raise RuntimeError("random observable draw degenerated")
        return cls(tuple(h / norms[:, None, None]))


def moments(psi: np.ndarray, a: MeanFieldObservable):
    """First and second moment of the mean-field observable in the pure state ``psi``.

    With A = sum_j A_j Hermitian, <A^2> = ||A psi||^2, so the second moment
    needs one image per qubit, not a product per pair of qubits.  Qubit j
    is the middle axis of the amplitudes as (2^j, 2, 2^(n-j-1)).
    """
    if len(psi) != 2**a.n_qubits:
        raise DimensionMismatch(f"observable on {a.n_qubits} qubits, state on {len(psi).bit_length() - 1}")
    image = np.zeros_like(psi)
    for j in range(a.n_qubits):
        image.reshape(2**j, 2, -1)[...] += np.einsum("ab,ibr->iar", a.factors[j], psi.reshape(2**j, 2, -1))
    m1 = float(np.vdot(psi, image).real)
    m2 = float(np.vdot(image, image).real)
    return m1, m2


def variance(psi: np.ndarray, a: MeanFieldObservable) -> float:
    """<a^2> - <a>^2 in the pure state ``psi``."""
    m1, m2 = moments(psi, a)
    return m2 - m1 * m1
