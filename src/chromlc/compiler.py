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
and checked as one stack (:meth:`Gate.batch`): one unitarity test per
sample, not one per gate.  The integrated index itself is not computed
here: callers that want it, such as ``chromlc compile --report``, ask
:func:`~chromlc.hamiltonian.integrated_chromatic_index`.

``trotterize`` is the unparallelized baseline (one gate per step, m
passes over the pair list) and ``rechromatize`` rewrites a schedule so
its instantaneous chromatic index never exceeds a cap, stretching time
by the matching-group count instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import linalg
from .errors import BadParams, EpsilonTooLarge, NotConstant, NotUnitary, TooLarge
from .graphs import color_edges, level_decompose
from .hamiltonian import (
    MAX_SAMPLES_PER_SEGMENT,
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
    "rechromatize",
    "trotterize",
    "weighted_depth",
]


@dataclass(frozen=True, eq=False)
class Gate:
    """Two-qubit gate: a 4x4 unitary on pair (k, l) plus its angle.

    The angle is the smallest norm of a Hermitian generator of the
    unitary.  :meth:`from_unitary` computes it from the matrix; a caller
    that built the unitary as exp(-i*H) with ||H|| <= pi may pass ||H||,
    and one that knows its eigenvalues the largest |phase| among them.
    The rules of :func:`_checked_gates` hold for every gate: ``Gate(...)``
    applies them to a stack of one, :meth:`batch` once to a whole stack.
    The unitary is read-only.
    """

    pair: tuple
    unitary: np.ndarray
    angle: float

    def __post_init__(self):
        (pair,), (u,), (angle,) = _checked_gates((self.pair,), (self.unitary,), (self.angle,))
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "angle", angle)

    @classmethod
    def from_unitary(cls, pair, unitary) -> "Gate":
        return cls(tuple(pair), unitary, linalg.unitary_angle(unitary))

    @classmethod
    def batch(cls, pairs, unitaries, angles) -> list:
        """``[Gate(p, u, a) for p, u, a in zip(pairs, unitaries, angles)]``,
        checked once for the whole stack; each unitary is a view into one
        read-only copy of ``unitaries``."""
        pairs, stack, angles = _checked_gates(pairs, unitaries, angles)
        gates = []
        for pair, u, angle in zip(pairs, stack, angles):
            gate = object.__new__(cls)  # set one by one, the attributes keep a compact instance dict
            object.__setattr__(gate, "pair", pair)
            object.__setattr__(gate, "unitary", u)
            object.__setattr__(gate, "angle", angle)
            gates.append(gate)
        return gates

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.angle == other.angle
            and np.array_equal(self.unitary, other.unitary)
        )


def _checked_gates(pairs, unitaries, angles):
    """The gate rules, applied to a stack at once: every pair has
    0 <= k < l, every unitary is 4x4 and unitary at 1e-10, every angle is
    finite.  Returns the pairs as tuples of ints, a read-only complex copy
    of the ``(g, 4, 4)`` stack and the angles as floats."""
    pairs = [(int(p[0]), int(p[1])) for p in pairs]
    for k, l in pairs:
        if not 0 <= k < l:
            raise BadParams(f"gate pair ({k},{l}) must satisfy 0 <= k < l")
    stack = np.array(unitaries, dtype=np.complex128)
    if stack.shape[1:] != (4, 4):
        raise BadParams(f"gate unitary must be 4x4, got {stack.shape[1:]}")
    if not linalg.is_unitary(stack, 1e-10):
        raise NotUnitary("gate matrix is not unitary at tolerance 1e-10")
    stack.flags.writeable = False
    angles = [float(a) for a in angles]
    for angle in angles:
        if not math.isfinite(angle):
            raise BadParams(f"gate angle must be finite, got {angle}")
    if not len(pairs) == len(stack) == len(angles):
        raise BadParams(
            f"gate stack lengths differ: {len(pairs)} pairs, {len(stack)} unitaries, {len(angles)} angles"
        )
    return pairs, stack, angles


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

    def n_gates(self) -> int:
        return sum(len(step.gates) for step in self.steps)


def weighted_depth(g: GateSchedule) -> float:
    """Sum over steps of the largest gate angle in the step."""
    return sum(step.max_angle() for step in g.steps)


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
        samples = snapshots(s, seg, mids[:1] if seg.is_constant else mids)
        block = None
        for t_mid in mids:
            if block is None or not seg.is_constant:
                block, levels = _sample_steps(next(samples), delta, known)
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


def _sample_steps(snap, delta: float, known: dict):
    """The steps of the subinterval sampled by snapshot ``snap``, and its
    thresholds, chromatic indices and exactness flags for the
    :class:`IntervalReport`.  ``known`` is the compilation's dict of
    colorings for :func:`~chromlc.graphs.level_decompose`.

    The gates are built as one stack in class order (levels ascending,
    classes in color order) and each class cuts its step off that stack."""
    rows = {pair: i for i, pair in enumerate(snap.pairs)}
    decomp = level_decompose(snap.graph, known)
    classes = [cls for level in decomp.levels for cls in level.coloring.classes]
    sizes = [sum(map(len, level.coloring.classes)) for level in decomp.levels]
    angles = np.repeat(delta * np.diff(decomp.thresholds(), prepend=0.0), sizes)
    gates = iter(_pair_gates(snap, [rows[pair] for cls in classes for pair in cls], angles))
    steps = [Step(tuple(islice(gates, len(cls)))) for cls in classes]
    levels = (
        decomp.thresholds(),
        tuple(lv.chromatic_index for lv in decomp.levels),
        tuple(lv.exact for lv in decomp.levels),
    )
    return steps, levels


def _pair_gates(snap, index, angles) -> list:
    """Gates exp(-i * angles[j] * H_e / ||H_e||) for the snapshot rows ``index``.

    Row j runs H_e for the duration angles[j] / ||H_e||, so its generator
    has norm angles[j], which is the gate angle up to pi; past pi the
    angle is the largest |phase| of the gate's eigenvalues.  The gates are
    checked as one stack (:meth:`Gate.batch`).
    """
    w, v = snap.eigenvalues[index], snap.eigenvectors[index]
    phases = np.exp((-1j * angles / snap.norms[index])[:, None] * w)
    unitaries = (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
    angles = np.where(angles <= math.pi, angles, np.max(np.abs(np.angle(phases)), axis=-1))
    return Gate.batch([snap.pairs[i] for i in index], unitaries, angles)


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
        for snap in snapshots(s, seg, mids):
            if not snap.pairs:
                out_segments.append(Segment(t_cursor, t_cursor + delta))
                t_cursor += delta
                continue
            rows = {pair: i for i, pair in enumerate(snap.pairs)}
            classes = color_edges(snap.graph).coloring.classes
            groups = [classes[i : i + m] for i in range(0, len(classes), m)]
            for group in groups:
                pairs = sorted(pair for matching in group for pair in matching)
                coeffs = [pauli_coeffs(snap.matrices[rows[pair]]) for pair in pairs]
                tracks = np.reshape(coeffs, (len(pairs), 16, 1))
                out_segments.append(Segment(t_cursor, t_cursor + delta, tuple(pairs), tracks))
                t_cursor += delta
    return HamiltonianSchedule(s.n_qubits, tuple(out_segments))
