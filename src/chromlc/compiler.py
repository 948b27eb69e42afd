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
unitary by construction.  Each gate holds the pair term it runs, the
sample's own Pauli coefficients, and its duration, so an edge's gates
over one subinterval share one term and their durations sum to the
subinterval length: the telescoping identity above, in the gate record.
The integrated index itself is not computed here: callers that want it,
such as ``chromlc compile --report``, ask
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
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import BadParams, EpsilonTooLarge, NotConstant, TooLarge
from .graphs import color_edges, level_decompose
from .hamiltonian import (
    MAX_SAMPLES_PER_SEGMENT,
    HamiltonianSchedule,
    Segment,
    pauli_coeffs,
    pauli_matrix,
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


class Gate(NamedTuple):
    """Two-qubit gate exp(-i*A) on pair (k, l) that runs a pair term H for a
    time: A = duration * H.  It holds its 4x4 unitary, its angle, the term
    as its 16 Pauli coefficients in ``PAULI_LABELS`` order, and the
    duration, a float.

    The angle is the smallest norm of a Hermitian generator of the unitary:
    ||A|| up to pi, and past pi the largest |phase| of the unitary's
    eigenvalues.  A plain record, a ``NamedTuple`` that checks nothing:
    the package builds every gate by one formula, :func:`_gates_from_eig`,
    from its row of a term table, one eigensolve per row, and its duration
    (in :func:`compile`, rows of a snapshot; in :meth:`from_terms`, which
    the gate-document reader calls), so the unitary is unitary, the angle
    agrees with it, and a gate read back is bit for bit the gate written;
    the fields cannot be reassigned, and unitary and term are read-only.
    Gates compare by value, arrays included, under ``==`` and ``!=`` alike,
    and are not hashable.  In :func:`compile` a gate's term is its sample's
    pair term and its duration d * (r_j - r_{j-1}) / ||H||, so the gates of
    one edge over one subinterval share the term and their durations sum
    to d.
    """

    pair: tuple
    unitary: np.ndarray
    angle: float
    term: np.ndarray
    duration: float

    @classmethod
    def from_terms(cls, pairs, terms, rows, durations) -> list:
        """The gates exp(-i * durations[j] * H_j) on ``pairs``, H_j the row
        ``rows[j]`` of the ``(t, 16)`` table ``terms``, by one stacked ``eigh``
        of the table's matrices; plain generators pass a row each and
        durations of 1.0.  Pairs satisfy 0 <= k < l, there is one integer row
        in [0, t) and one finite duration per pair, and the table is copied.
        Before any gate is built, ``TooLarge`` names the first row, used or
        not, whose matrix or norm is beyond the float range; the caller keeps
        each generator's absolute coefficients summed within it.
        """
        pairs = [(int(p[0]), int(p[1])) for p in pairs]
        for k, l in pairs:
            if not 0 <= k < l:
                raise BadParams(f"gate pair ({k},{l}) must satisfy 0 <= k < l")
        terms = np.array(terms, dtype=float)
        if terms.ndim != 2 or terms.shape[1] != 16:
            raise BadParams(f"gate term must hold 16 coefficients, got shape {terms.shape[1:]}")
        rows, durations = np.asarray(rows), np.array(durations, dtype=float)
        if rows.shape != (len(pairs),) or durations.shape != (len(pairs),):
            raise BadParams(f"gate stacks differ: {len(pairs)} pairs, rows {rows.shape}, durations {durations.shape}")
        if rows.dtype.kind not in "iu" and rows.size or not ((0 <= rows) & (rows < len(terms))).all():
            raise BadParams(f"gate rows must be integers in [0, {len(terms)})")
        if not np.isfinite(durations).all():
            raise BadParams("gate durations must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            matrices = pauli_matrix(terms)
        finite = np.isfinite(matrices).all(axis=(1, 2))
        matrices[~finite] = 0.0  # LAPACK gets finite entries only; these rows are refused below
        w, v = np.linalg.eigh(matrices)
        finite &= np.isfinite(w).all(axis=1)
        if not finite.all():
            raise TooLarge(f"terms[{np.argmin(finite)}]: the term's matrix and norm must lie within the float range")
        return _gates_from_eig(pairs, w, v, terms, rows.astype(np.intp), durations)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.angle == other.angle
            and self.duration == other.duration
            and np.array_equal(self.unitary, other.unitary)
            and np.array_equal(self.term, other.term)
        )

    # tuple.__ne__ would compare the arrays elementwise and raise; this one negates __eq__
    __ne__ = object.__ne__


@dataclass(frozen=True)
class Step:
    """One parallel layer: gates on mutually disjoint pairs.

    The pairs are disjoint when the set of the qubits they touch holds two
    per gate; only a step that fails this test is walked gate by gate, to
    name the first gate that touches a qubit an earlier gate does."""

    gates: tuple

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if not gates:
            raise BadParams("a step needs at least one gate")
        if len({q for g in gates for q in g.pair}) < 2 * len(gates):
            touched = set()
            for g in gates:
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
    pairs = [pair for cls in classes for pair in cls]
    index = [rows[pair] for pair in pairs]
    durations = np.repeat(level_angles, sizes) / snap.norms[index]
    gates = iter(_gates_from_eig(pairs, snap.eigenvalues, snap.eigenvectors, snap.coeffs, index, durations))
    steps = [Step(tuple(islice(gates, len(cls)))) for cls in classes]
    levels = (
        decomp.thresholds(),
        tuple(len(lv.coloring.classes) for lv in decomp.levels),
        tuple(lv.exact for lv in decomp.levels),
    )
    return steps, levels


def _gates_from_eig(pairs, w, v, terms, rows, durations) -> list:
    """The one gate formula: gate j on ``pairs[j]`` runs row ``rows[j]``, H,
    of the ``(t, 16)`` table ``terms`` for ``durations[j]``, from the rows'
    eigendecompositions H = V diag(w) V^dagger, ``w`` (t, 4) and ``v``
    (t, 4, 4) as ``eigh`` gives them, gathered here.  The unitary is
    V diag(exp(-i * tau * w)) V^dagger, so it is unitary, and the angle is
    |tau| * ||H|| up to pi and past pi the largest |phase|.  Every tau * w
    is finite: :func:`compile` builds its durations from finite angles, and
    :meth:`Gate.from_terms` refuses terms, its callers generators, beyond
    the float range.  The unitaries and the gathered terms become
    read-only; each gate holds views of them, and the tuple constructor
    builds each gate from its five fields."""
    w, v, terms = w[rows], v[rows], terms[rows]
    phases = np.exp(-1j * (durations[:, None] * w))
    unitaries = (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
    norms = np.abs(durations) * np.abs(w).max(axis=-1)
    angles = np.where(norms <= math.pi, norms, np.max(np.abs(np.angle(phases)), axis=-1)).tolist()
    unitaries.flags.writeable = False
    terms.flags.writeable = False
    return [tuple.__new__(Gate, gate) for gate in zip(pairs, unitaries, angles, terms, durations.tolist())]


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
    rows = np.arange(len(snap.pairs))
    durations = np.full(len(rows), s.total_time / m)
    pass_gates = _gates_from_eig(snap.pairs, snap.eigenvalues, snap.eigenvectors, snap.coeffs, rows, durations)
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
                tracks = snap.coeffs[[rows[pair] for pair in pairs], :, None]
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
