"""Compile continuous pair-interaction schedules into parallel gate schedules.

The pipeline samples the Hamiltonian at subinterval midpoints, slices the
instantaneous interaction graph into threshold levels, edge-colors every
level into matchings, and emits one step per matching.  For an edge of
norm w the level factors telescope: the product of its gates over one
subinterval of length d equals exp(-i * d * H_kl(mid)) exactly, while the
summed step angles reproduce d * W(mid).  The weighted depth of the
output is therefore the midpoint Riemann sum of the weighted chromatic
index, and converges to the schedule's integrated index as the
subinterval length shrinks.

Every subinterval of a constant segment has the same snapshot, levels and
gates, so such a segment is compiled once and its steps repeat, the same
objects each time.  A sample's gates, over all of its levels, are built
as one stack from its pair terms' eigendecompositions, so they are
unitary by construction.  The integrated index itself is not computed
here: callers that want it, such as ``chromlc compile --report``, ask
:func:`~chromlc.hamiltonian.integrated_chromatic_index`.

``trotterize`` is the unparallelized baseline (one gate per step, m
passes over the pair list) and ``rechromatize`` rewrites a schedule so
its instantaneous chromatic index never exceeds a cap, stretching time
by the matching-group count instead.

``embed_discrete`` is the other direction: a gate schedule as a continuous
one (a unit-length constant segment per step, generators from the principal
logarithm) whose integrated index equals its weighted depth exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import linalg
from .errors import BadParams, EpsilonTooLarge, NotConstant, TooLarge
from .graphs import color_edges, level_decompose
from .hamiltonian import (
    MAX_SAMPLES_PER_SEGMENT,
    PAULI_PRODUCTS,
    HamiltonianSchedule,
    Segment,
    pauli_coeffs,
    snapshot,
    snapshots,
)

__all__ = [
    "CompilationReport",
    "Gate",
    "GateSchedule",
    "IntervalReport",
    "Step",
    "compile",
    "embed_discrete",
    "rechromatize",
    "trotterize",
    "weighted_depth",
]

# a flattened 4x4 matrix m times _PAULI_DUAL is tr(P_j m) for every Pauli
# product P_j, in PAULI_LABELS order: four times m's Pauli coefficients; one
# (1, 16) row per matrix rounds the same in a stack of any size
_PAULI_DUAL = PAULI_PRODUCTS.reshape(16, 16).conj().T


@dataclass(frozen=True, eq=False)
class Gate:
    """Two-qubit gate exp(-i*A) on pair (k, l): its 4x4 unitary, its angle
    and its Hermitian generator A, as the 16 Pauli coefficients of A in
    ``PAULI_LABELS`` order.

    The angle is the smallest norm of a Hermitian generator of the unitary:
    ||A|| up to pi, and past pi the largest |phase| of the unitary's
    eigenvalues.  A plain record: the package builds every gate in
    :func:`_gates_from_eig` from an eigendecomposition (of each pair term in
    :func:`compile`, of A in :meth:`from_generators`, which the
    gate-document reader calls), so the unitary is unitary and the angle
    agrees with it by construction; the unitary and the generator are
    read-only.
    """

    pair: tuple
    unitary: np.ndarray
    angle: float
    generator: np.ndarray

    @classmethod
    def from_generators(cls, pairs, generators) -> list:
        """The gates exp(-i*A) on ``pairs`` for a ``(g, 16)`` stack of
        generator coefficients, by one stacked ``eigh`` of the matrices A.

        Every pair must satisfy 0 <= k < l, and the stack holds one
        generator per pair; it is copied.  The caller keeps the absolute
        coefficients of each generator summing to a float, as the
        gate-document reader checks: that sum bounds ||A||, so every entry
        and eigenvalue of A is a float.
        """
        pairs = [(int(p[0]), int(p[1])) for p in pairs]
        for k, l in pairs:
            if not 0 <= k < l:
                raise BadParams(f"gate pair ({k},{l}) must satisfy 0 <= k < l")
        generators = np.array(generators, dtype=float)
        if generators.ndim != 2 or generators.shape[1] != 16:
            raise BadParams(f"gate generator must hold 16 coefficients, got shape {generators.shape[1:]}")
        if len(generators) != len(pairs):
            raise BadParams(f"gate stack lengths differ: {len(pairs)} pairs, {len(generators)} generators")
        matrices = np.matmul(generators[:, None, :], PAULI_PRODUCTS.reshape(16, 16)).reshape(-1, 4, 4)
        w, v = np.linalg.eigh(matrices)
        return _gates_from_eig(pairs, np.exp(-1j * w), v, np.max(np.abs(w), axis=-1), generators)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.angle == other.angle
            and np.array_equal(self.unitary, other.unitary)
            and np.array_equal(self.generator, other.generator)
        )


@dataclass(frozen=True)
class Step:
    """One parallel layer: gates on mutually disjoint pairs."""

    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise BadParams("a step needs at least one gate")
        touched = set()
        for g in self.gates:
            if g.pair[0] in touched or g.pair[1] in touched:
                raise BadParams(f"step gates overlap at pair {g.pair}")
            touched.update(g.pair)

    def max_angle(self) -> float:
        return max(g.angle for g in self.gates)


@dataclass(frozen=True)
class GateSchedule:
    n_qubits: int
    steps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.n_qubits < 2:
            raise BadParams("gate schedules need at least two qubits")
        for step in self.steps:
            for g in step.gates:
                if g.pair[1] >= self.n_qubits:
                    raise BadParams(f"gate pair {g.pair} exceeds register of {self.n_qubits}")


def weighted_depth(g: GateSchedule) -> float:
    """Sum over steps of the largest gate angle in the step."""
    return sum((step.max_angle() for step in g.steps), 0.0)


@dataclass(frozen=True)
class IntervalReport:
    """Diagnostics for one compiled subinterval."""

    t_mid: float
    delta: float
    thresholds: tuple
    chromatic_indices: tuple
    exact: tuple


@dataclass(frozen=True)
class CompilationReport:
    epsilon: float
    n_steps: int
    weighted_depth: float
    intervals: tuple = field(default=())


def _subintervals(s: HamiltonianSchedule, epsilon: float) -> list:
    """``(segment, delta, midpoints)`` for every segment, in time order.

    Each segment splits into ceil(length/epsilon) equal parts of length
    delta, so epsilon must be positive and at most the shortest segment
    length, and the schedule may not split into more than
    ``MAX_SAMPLES_PER_SEGMENT`` parts in all.
    """
    if not epsilon > 0:
        raise BadParams("epsilon must be positive")
    if epsilon > s.min_segment_length() + 1e-15:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} exceeds the shortest segment length {s.min_segment_length()}"
        )
    out = []
    left = MAX_SAMPLES_PER_SEGMENT
    for seg in s.segments:
        parts = seg.length / epsilon - 1e-12  # inf when 1 / epsilon overflows
        if not parts <= left:
            raise TooLarge(
                f"epsilon {epsilon} splits the schedule into more than "
                f"{MAX_SAMPLES_PER_SEGMENT} subintervals"
            )
        count = max(1, math.ceil(parts))
        left -= count
        delta = seg.length / count
        out.append((seg, delta, [seg.t_start + (i + 0.5) * delta for i in range(count)]))
    return out


def compile(s: HamiltonianSchedule, epsilon: float):
    """Discretize a continuous schedule into parallel gate steps.

    Returns ``(GateSchedule, CompilationReport)``.  Each subinterval of
    length d contributes, per threshold level j and per matching of that
    level's coloring, one step of gates
    exp(-i * H_kl(mid) * d * (r_j - r_{j-1}) / ||H_kl(mid)||).
    Deterministic: levels ascend, matchings keep color order, pairs are
    lexicographic.  A time-varying segment is sampled at all of its
    midpoints as one grid of :func:`~chromlc.hamiltonian.snapshots`; a
    constant segment is sampled once, and its later subintervals repeat the
    first one's ``Step`` objects.  The samples of one call share a dict of
    colorings, so each distinct level edge set is colored once per call.
    """
    steps = []
    intervals = []
    known = {}
    for seg, delta, mids in _subintervals(s, epsilon):
        samples = snapshots(seg, mids[:1] if seg.is_constant else mids)
        block = None
        for t_mid in mids:
            if block is None or not seg.is_constant:
                block, levels = _sample_steps(next(samples), t_mid, delta, known)
            steps.extend(block)
            intervals.append(IntervalReport(t_mid, delta, *levels))
    schedule = GateSchedule(s.n_qubits, tuple(steps))
    report = CompilationReport(
        epsilon=float(epsilon),
        n_steps=len(steps),
        weighted_depth=weighted_depth(schedule),
        intervals=tuple(intervals),
    )
    return schedule, report


def _sample_steps(snap, t_mid: float, delta: float, known: dict):
    """The steps of the subinterval sampled by snapshot ``snap`` at
    ``t_mid``, and its thresholds, chromatic indices and exactness flags for
    the :class:`IntervalReport`.  ``known`` is the compilation's dict of
    colorings for :func:`~chromlc.graphs.level_decompose`.

    The gates are built as one stack in class order (levels ascending,
    classes in color order) and each class cuts its step off that stack.
    ``TooLarge`` names ``t_mid`` when a level's angle exceeds the float range."""
    rows = {pair: i for i, pair in enumerate(snap.pairs)}
    decomp = level_decompose(snap.pairs, snap.norms.tolist(), known)
    classes = [cls for level in decomp.levels for cls in level.coloring.classes]
    sizes = [sum(map(len, level.coloring.classes)) for level in decomp.levels]
    with np.errstate(over="ignore"):  # checked below
        level_angles = delta * np.diff(decomp.thresholds(), prepend=0.0)
    if not np.isfinite(level_angles).all():
        raise TooLarge(f"the gate angles of the subinterval at t={t_mid!r} exceed the float range")
    angles = np.repeat(level_angles, sizes)
    gates = iter(_pair_gates(snap, [rows[pair] for cls in classes for pair in cls], angles))
    steps = [Step(tuple(islice(gates, len(cls)))) for cls in classes]
    levels = (
        decomp.thresholds(),
        tuple(len(lv.coloring.classes) for lv in decomp.levels),
        tuple(lv.exact for lv in decomp.levels),
    )
    return steps, levels


def _pair_gates(snap, index, angles) -> list:
    """Gates exp(-i * angles[j] * H_e / ||H_e||) for the snapshot rows ``index``.

    Row j runs H_e for the duration angles[j] / ||H_e||, so its generator
    has norm angles[j], which is the gate angle up to pi.  The unitaries
    come from the snapshot's eigendecompositions, and the generators'
    coefficients from one projection of the rows' matrices onto the Pauli
    products.
    """
    phases = np.exp((-1j * angles / snap.norms[index])[:, None] * snap.eigenvalues[index])
    coeffs = np.matmul(snap.matrices[index].reshape(-1, 1, 16), _PAULI_DUAL).real.reshape(-1, 16) / 4.0
    generators = (angles / snap.norms[index])[:, None] * coeffs
    pairs = [snap.pairs[i] for i in index]
    return _gates_from_eig(pairs, phases, snap.eigenvectors[index], angles, generators)


def _gates_from_eig(pairs, phases, v, norms, generators) -> list:
    """The gates exp(-i*A) of generators A whose eigenvectors ``v`` (g, 4, 4)
    carry the eigenvalues ``phases`` (g, 4) of exp(-i*A), and whose norms are
    ``norms``; the angle is the norm up to pi and past pi the largest
    |phase|.  The one place a gate is built: ``v`` comes from ``eigh`` and
    every phase has modulus 1, so each unitary is unitary.  The generators
    are finite: :func:`compile` builds them from finite terms and angles
    within the float range, and the gate-document reader refuses unbounded
    ones.  The unitaries and the ``(g, 16)`` array ``generators``, which
    the caller hands over, become read-only; each gate holds views of them."""
    unitaries = (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
    angles = np.where(norms <= math.pi, norms, np.max(np.abs(np.angle(phases)), axis=-1)).tolist()
    unitaries.flags.writeable = False
    generators.flags.writeable = False
    return [Gate(*gate) for gate in zip(pairs, unitaries, angles, generators)]


def trotterize(s: HamiltonianSchedule, m: int) -> GateSchedule:
    """Sequential product-formula baseline for a constant schedule.

    m passes over the pair list in lexicographic order, one gate
    exp(-i * H_kl * T/m) per step; depth is m times the pair count and no
    parallelization is attempted.  Every pass repeats the first one's
    ``Step`` objects.  m is capped, as ``compile``'s
    subintervals are, at ``MAX_SAMPLES_PER_SEGMENT``.
    """
    if m < 1:
        raise BadParams("m must be at least 1")
    if m > MAX_SAMPLES_PER_SEGMENT:
        raise TooLarge(f"slice counts are limited to {MAX_SAMPLES_PER_SEGMENT}, got {m}")
    if not s.is_constant:
        raise NotConstant("trotterize requires a single constant segment")
    snap = snapshot(s, s.segments[0].t_start)
    pass_gates = _pair_gates(snap, list(range(len(snap.pairs))), s.total_time / m * snap.norms)
    return GateSchedule(s.n_qubits, tuple(Step((g,)) for g in pass_gates) * m)


def rechromatize(s: HamiltonianSchedule, m: int, epsilon: float) -> HamiltonianSchedule:
    """Rewrite a schedule so the instantaneous chromatic index stays <= m.

    Every subinterval's edge set is split into groups of at most m
    matchings (from :func:`~chromlc.graphs.color_edges`: at most max degree
    + 1 of them, and optimal when it reports ``exact``); the groups run one
    after the other, each for the full subinterval length, so time
    stretches by the group count while pair strengths are preserved.
    """
    if m < 1:
        raise BadParams("m must be at least 1")
    out_segments = []
    t_cursor = 0.0
    for seg, delta, mids in _subintervals(s, epsilon):
        for snap in snapshots(seg, mids):
            if not snap.pairs:
                out_segments.append(Segment(t_cursor, t_cursor + delta))
                t_cursor += delta
                continue
            rows = {pair: i for i, pair in enumerate(snap.pairs)}
            classes = color_edges(snap.pairs).classes
            groups = [classes[i : i + m] for i in range(0, len(classes), m)]
            for group in groups:
                pairs = sorted(pair for matching in group for pair in matching)
                coeffs = [pauli_coeffs(snap.matrices[rows[pair]]) for pair in pairs]
                tracks = np.reshape(coeffs, (len(pairs), 16, 1))
                out_segments.append(Segment(t_cursor, t_cursor + delta, tuple(pairs), tracks))
                t_cursor += delta
    return HamiltonianSchedule(s.n_qubits, tuple(out_segments))


def embed_discrete(g: GateSchedule) -> HamiltonianSchedule:
    """Continuous schedule equivalent to a gate schedule, step by step.

    Step j becomes the constant segment [j-1, j] whose pair terms generate
    the step's gates over unit time (H = -log(u), so exp(-i*H*1) = u).  An
    empty gate schedule maps to a single zero segment of unit length.
    """
    if not g.steps:
        return HamiltonianSchedule(g.n_qubits, (Segment(0.0, 1.0),))
    segments = []
    for j, step in enumerate(g.steps):
        gates = sorted(step.gates, key=lambda gt: gt.pair)
        coeffs = [pauli_coeffs(-linalg.unitary_log(gate.unitary)) for gate in gates]
        tracks = np.reshape(coeffs, (len(gates), 16, 1))
        segments.append(Segment(float(j), float(j + 1), tuple(gate.pair for gate in gates), tracks))
    return HamiltonianSchedule(g.n_qubits, tuple(segments))
