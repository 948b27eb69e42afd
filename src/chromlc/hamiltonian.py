"""Piecewise-polynomial pair-interaction Hamiltonian schedules.

A schedule assigns every unordered qubit pair (k, l) a 4x4 Hermitian
matrix H_kl(t), written in the two-qubit Pauli basis with polynomial
time dependence on each segment.  From it derive, at any time t, the
snapshot (every active pair term with its eigendecomposition and norm;
the pairs are the interaction graph and the norms its edge weights), the
weighted chromatic index W(t) (threshold integral of that graph's
chromatic index, a finite sum over distinct norms), and the
schedule-level integral I of W over [0, T] -- the running-time measure
the compiler targets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .errors import BadParams, NotHermitian, OutOfRange, TooLarge
from .graphs import level_decompose

MAX_POLY_DEGREE = 8
# Cap on samples: quadrature points per segment of integrated_chromatic_index,
# subintervals of a whole compile (all segments together), slices of
# trotterize.  Each compiled subinterval writes at least a 65-byte gate, and a
# varying term a 320-byte table row: 2^16 subintervals of one pair make 4.3 MB,
# 25 MB if it varies.  Uncapped, a typo such as ``--epsilon 1e-13`` or
# ``--samples 1000000000000`` asks for terabytes before any work starts.
MAX_SAMPLES_PER_SEGMENT = 2**16
# Cap on the quadrature points of integrated_chromatic_index summed over all
# segments: the index command holds about 300 bytes per point, so the cap is
# about 1.3 GB.  compile admits at most 2^16 segments and its report samples
# 64 per segment, so every schedule compile accepts still gets its report.
MAX_INDEX_SAMPLES = 64 * 2**16
# Cap on the pair terms a generator may produce, summed over its segments,
# checked before any draw.  A term stores 16 float coefficients per degree
# (up to 1.2 kB), its snapshot rows 0.4 kB, and each compiled sample writes it
# as a table row and a gate, about 370 bytes, so 2^16 terms make a 24 MB gate
# document from a single sample.  Uncapped, ``complete_mean_field --n 2000``
# asks for two million terms and ``random_graph --segments 1000000`` for a
# million segments, and neither returns in minutes.
MAX_GENERATED_TERMS = 2**16
ZERO_NORM_TOL = 1e-12  # pair terms with a smaller norm count as absent
# Pair matrices per stacked eigensolve of a sample grid (:func:`snapshots`):
# about 0.7 kB of arrays each (1.0 kB while a chunk is evaluated), so a chunk
# stays near 1 MB however many samples and terms the grid has.
EIG_CHUNK = 1024

# I, X, Y, Z, and their 16 two-qubit products in the order of PAULI_LABELS.
# Both tables are read-only: every H(t) is built from them.
PAULI_MATRICES = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULI_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
PAULI_PRODUCTS = np.stack([np.kron(a, b) for a in PAULI_MATRICES for b in PAULI_MATRICES])
PAULI_MATRICES.flags.writeable = False
PAULI_PRODUCTS.flags.writeable = False

__all__ = [
    "EIG_CHUNK",
    "GENERATORS",
    "MAX_GENERATED_TERMS",
    "MAX_INDEX_SAMPLES",
    "MAX_SAMPLES_PER_SEGMENT",
    "PAULI_LABELS",
    "PAULI_MATRICES",
    "PAULI_PRODUCTS",
    "HamiltonianSchedule",
    "IndexProfile",
    "Segment",
    "Snapshot",
    "ZERO_NORM_TOL",
    "chain",
    "complete_mean_field",
    "disjoint_pairs",
    "generate",
    "integrated_chromatic_index",
    "pauli_coeffs",
    "pauli_matrix",
    "random_graph",
    "random_time_varying",
    "scale_schedule",
    "snapshot",
    "snapshots",
]


def pauli_coeffs(m) -> np.ndarray:
    """Expansion of a Hermitian 4x4 matrix over (I,X,Y,Z) x (I,X,Y,Z).

    Coefficients are tr(m * sigma_a x sigma_b) / 4 and real for Hermitian
    input; reconstruction through :func:`pauli_matrix` round-trips.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise BadParams(f"expected a 4x4 matrix, got {m.shape}")
    if not linalg.is_hermitian(m, 1e-10):
        raise NotHermitian("Pauli coefficients are defined for Hermitian matrices")
    return np.einsum("kij,ji->k", PAULI_PRODUCTS, m).real / 4.0


def pauli_matrix(coeffs) -> np.ndarray:
    """Hermitian 4x4 matrix with the given 16 Pauli coefficients, or the
    (..., 4, 4) stack of a (..., 16) stack: the one place coefficients become
    matrices.  Each is one (1, 16) row times the Pauli table, so every caller
    rounds alike (``tensordot`` or ``einsum`` can differ in the last bit)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim < 1 or c.shape[-1] != 16:
        raise BadParams(f"expected 16 coefficients, got shape {c.shape}")
    return np.matmul(c.reshape(-1, 1, 16), PAULI_PRODUCTS.reshape(16, 16)).reshape(c.shape[:-1] + (4, 4))


@dataclass(frozen=True, eq=False)
class Segment:
    """The pair terms on [t_start, t_end], polynomial in absolute time.

    ``pairs`` lists the interacting pairs (k, l), 0 <= k < l, each at most
    once.  ``tracks[i, j]`` holds the ascending-degree coefficients of the
    Pauli product ``PAULI_LABELS[j]`` in the term of ``pairs[i]``: a
    read-only float array of shape (terms, 16, degree + 1), trimmed so that
    its top degree is nonzero somewhere (degree 0 when no coefficient is).
    Segments compare by value.
    """

    t_start: float
    t_end: float
    pairs: tuple = ()
    tracks: np.ndarray = None

    def __post_init__(self):
        t_start, t_end = float(self.t_start), float(self.t_end)
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise BadParams(f"segment ends must be finite, got [{t_start}, {t_end}]")
        if not t_start < t_end:
            raise BadParams(f"segment [{t_start}, {t_end}] is empty or reversed")
        pairs = tuple((int(k), int(l)) for k, l in self.pairs)
        for k, l in pairs:
            if not 0 <= k < l:
                raise BadParams(f"pair ({k},{l}) must satisfy 0 <= k < l")
        if len(set(pairs)) != len(pairs):
            raise BadParams("segment holds duplicate pair terms")
        raw = np.zeros((len(pairs), 16, 1)) if self.tracks is None else np.asarray(self.tracks, dtype=float)
        if raw.ndim != 3 or raw.shape[:2] != (len(pairs), 16) or raw.shape[2] < 1:
            raise BadParams(
                f"expected coefficient tracks of shape ({len(pairs)}, 16, degree + 1), got {raw.shape}"
            )
        used = np.flatnonzero(raw.any(axis=(0, 1)))
        tracks = np.array(raw[:, :, : used[-1] + 1 if used.size else 1])
        if tracks.shape[2] > MAX_POLY_DEGREE + 1:
            raise BadParams(f"polynomial degree exceeds {MAX_POLY_DEGREE}")
        finite = np.isfinite(tracks).all(axis=(1, 2))
        if not finite.all():
            raise BadParams(f"pair {pairs[int(np.argmin(finite))]}: polynomial coefficients must be finite")
        tracks.flags.writeable = False
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "tracks", tracks)

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        same = (self.t_start, self.t_end, self.pairs) == (other.t_start, other.t_end, other.pairs)
        return same and np.array_equal(self.tracks, other.tracks)

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def is_constant(self) -> bool:
        return self.tracks.shape[2] == 1

    def matrices_at(self, t) -> np.ndarray:
        """H_kl(t) of every term, stacked (terms, 4, 4) in the order of ``pairs``;
        for a vector of times, one such stack per time, (times, terms, 4, 4).

        ``TooLarge`` names the first time, and at it the first pair, whose
        matrix has an entry beyond the float range.
        """
        return _terms_at(self.tracks, self.pairs, t)[1]


def _terms_at(tracks, pairs, t):
    """The Pauli coefficients at ``t`` of the terms on ``pairs`` with
    coefficient ``tracks``, stacked as :meth:`Segment.matrices_at` stacks
    their matrices but with 16 in place of (4, 4), and that stack of
    matrices, built from them.  ``TooLarge`` names the first time, and at
    it the first of ``pairs``, whose matrix has an entry beyond the float
    range."""
    times = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coeffs = _term_coeffs(tracks, times)
        matrices = pauli_matrix(coeffs)
    finite = np.isfinite(matrices).all(axis=(-2, -1)).reshape(times.size, len(pairs))
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise TooLarge(f"pair {pairs[j]}: the term at t={float(times.flat[i])!r} exceeds the float range")
    return coeffs, matrices


def _term_coeffs(tracks, times) -> np.ndarray:
    """The Pauli coefficients of the pair terms of ``tracks`` at each of
    ``times``, (times.shape + (terms, 16)), in Horner's form, unchecked."""
    c = np.zeros(times.shape + tracks.shape[:2])
    for d in range(tracks.shape[2] - 1, -1, -1):
        c *= times[..., None, None]
        c += tracks[:, :, d]
    return c


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Contiguous segments tiling [0, T] on a register of n_qubits qubits."""

    n_qubits: int
    segments: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.n_qubits < 2:
            raise BadParams("a pair-interaction schedule needs at least two qubits")
        if not self.segments:
            raise BadParams("schedule must cover [0,T]")
        if self.segments[0].t_start != 0.0:
            raise BadParams("schedule must cover [0,T]: first segment starts at "
                            f"{self.segments[0].t_start}, not 0")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.t_end != b.t_start:
                raise BadParams(f"segments must tile exactly: gap at t={a.t_end}")
        for seg in self.segments:
            for k, l in seg.pairs:
                if l >= self.n_qubits:
                    raise BadParams(f"pair {(k, l)} exceeds register of {self.n_qubits}")

    @property
    def total_time(self) -> float:
        return self.segments[-1].t_end

    @property
    def is_constant(self) -> bool:
        return len(self.segments) == 1 and self.segments[0].is_constant

    @property
    def is_piecewise_constant(self) -> bool:
        return all(seg.is_constant for seg in self.segments)

    def min_segment_length(self) -> float:
        return min(seg.length for seg in self.segments)

    def segment_at(self, t: float) -> Segment:
        """Segment containing t, right-open except at t = T."""
        if t < 0.0 or t > self.total_time:
            raise OutOfRange(f"t={t} outside [0, {self.total_time}]")
        return self.segments[bisect_right(self.segments, t, key=lambda seg: seg.t_start) - 1]


@dataclass(frozen=True)
class IndexProfile:
    """Sampled W(t) values and the resulting integral with an error estimate."""

    times: np.ndarray
    values: np.ndarray
    integral: float
    error_estimate: float


class Snapshot(NamedTuple):
    """The active pair terms at one instant, diagonalized together.

    ``pairs`` ascend, and row i of every array belongs to ``pairs[i]``:
    ``coeffs`` (m, 16), the term's Pauli coefficients in ``PAULI_LABELS``
    order as the segment's tracks give them at that instant, the
    ``eigenvalues`` (m, 4, ascending) and ``eigenvectors`` (m, 4, 4,
    columns) of the matrices built from them, and ``norms`` (m,), the
    largest |eigenvalue| of each.  Terms with norm at most
    ``ZERO_NORM_TOL`` are left out.  The pairs are the edges of the
    interaction graph and the norms their weights.
    """

    pairs: tuple
    coeffs: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norms: np.ndarray


def snapshots(seg: Segment, times) -> Iterator[Snapshot]:
    """The snapshot of segment ``seg`` at each of ``times``, in order.

    A generator over a sample grid of one segment: it evaluates the times in
    chunks of at most ``EIG_CHUNK`` pair matrices (one time per chunk when a
    time alone has more), each with one evaluation of the terms'
    coefficients and matrices, in ascending pair order, as
    :meth:`Segment.matrices_at` evaluates them, and one stacked
    eigendecomposition, so that only one chunk's arrays are alive at a time.
    LAPACK diagonalizes every matrix of a stack by itself, so each snapshot
    is bit for bit the one a grid of that time alone gives.  ``TooLarge``
    names the first time, and at it the first pair in ascending order,
    whose matrix has an entry beyond the float range.
    """
    order = sorted(range(len(seg.pairs)), key=seg.pairs.__getitem__)
    pairs = tuple(seg.pairs[i] for i in order)
    tracks = seg.tracks[order]
    times = np.asarray(times, dtype=float)
    step = max(1, EIG_CHUNK // max(1, len(pairs)))
    for start in range(0, len(times), step):
        coeffs, matrices = _terms_at(tracks, pairs, times[start : start + step])
        w, v = linalg.hermitian_eig(matrices)
        norms = np.max(np.abs(w), axis=-1, initial=0.0)
        keep = norms > ZERO_NORM_TOL
        for c, wi, vi, ni, on, full in zip(coeffs, w, v, norms, keep, keep.all(axis=-1).tolist()):
            active = pairs
            if not full:
                active = tuple(compress(pairs, on))
                c, wi, vi, ni = c[on], wi[on], vi[on], ni[on]
            yield Snapshot(active, c, wi, vi, ni)


def snapshot(s: HamiltonianSchedule, t: float) -> Snapshot:
    """Every pair term at time t: :func:`snapshots` on a grid of one time."""
    return next(snapshots(s.segment_at(t), [t]))


def integrated_chromatic_index(s: HamiltonianSchedule, samples_per_segment: int = 64) -> IndexProfile:
    """Composite midpoint quadrature of W(t) over every segment.

    Constant segments are integrated exactly from a single midpoint sample;
    the error estimate compares the requested resolution against doubled
    sampling and is therefore zero for piecewise-constant schedules.  A
    time-varying segment is sampled at its N reported and 2N error-estimate
    midpoints as one grid of :func:`snapshots`, and the samples of one call
    share a dict of colorings, so a level edge set that recurs (neighbouring
    samples share most of theirs) is colored once per call.  Each value is
    bit for bit the level sum of ``snap = snapshot(s, t)`` at its time t,
    ``level_decompose(snap.pairs, snap.norms.tolist(), {}).weighted_sum()``.
    An integral or error estimate beyond the float range raises ``TooLarge``.
    """
    if samples_per_segment < 1:
        raise BadParams("samples_per_segment must be at least 1")
    if samples_per_segment > MAX_SAMPLES_PER_SEGMENT:
        raise TooLarge(
            f"samples per segment are limited to {MAX_SAMPLES_PER_SEGMENT}, got {samples_per_segment}"
        )
    if samples_per_segment * len(s.segments) > MAX_INDEX_SAMPLES:
        raise TooLarge(
            f"{samples_per_segment} samples on each of {len(s.segments)} segments exceed "
            f"the {MAX_INDEX_SAMPLES} samples of one integral"
        )
    n = samples_per_segment
    times = []
    values = []
    total = 0.0
    err = 0.0
    known = {}
    for seg in s.segments:
        length = seg.length
        mids = seg.t_start + (np.arange(n) + 0.5) * (length / n)
        times.extend(mids.tolist())
        if seg.is_constant:
            (w,) = _grid_values(seg, mids[:1], known)
            values.extend([w] * n)
            total += w * length
            continue
        mids2 = seg.t_start + (np.arange(2 * n) + 0.5) * (length / (2 * n))
        vals = _grid_values(seg, np.concatenate([mids, mids2]), known)
        coarse = (length / n) * sum(vals[:n])
        fine = (length / (2 * n)) * sum(vals[n:])
        values.extend(vals[:n])
        total += coarse
        err += abs(fine - coarse)
    if not (math.isfinite(total) and math.isfinite(err)):
        raise TooLarge(f"integrated chromatic index overflows the float range: {total!r}")
    return IndexProfile(np.array(times), np.array(values), total, err)


def _grid_values(seg: Segment, times, known: dict) -> list:
    """W at each of ``times`` in segment ``seg``, colorings shared through ``known``."""
    return [level_decompose(snap.pairs, snap.norms.tolist(), known).weighted_sum() for snap in snapshots(seg, times)]


def scale_schedule(s: HamiltonianSchedule, factor: float) -> HamiltonianSchedule:
    """Multiply every pair term by ``factor`` > 0 (W and I scale the same way)."""
    if not factor > 0:
        raise BadParams("scale factor must be positive")
    segments = tuple(Segment(seg.t_start, seg.t_end, seg.pairs, factor * seg.tracks) for seg in s.segments)
    return HamiltonianSchedule(s.n_qubits, segments)


# ---------------------------------------------------------------------------
# generators


def _uniform_schedule(n: int, t_total: float, pairs, label_coeffs) -> HamiltonianSchedule:
    """One segment over [0, t_total] giving every pair the same constant term."""
    row = np.zeros((16, 1))
    for label, value in label_coeffs.items():
        row[PAULI_LABELS.index(label)] = value
    tracks = np.broadcast_to(row, (len(pairs), 16, 1))
    return HamiltonianSchedule(n, (Segment(0.0, float(t_total), tuple(pairs), tracks),))


def _heisenberg(strength: float) -> dict:
    # (XX + YY + ZZ)/3 has operator norm 1, so the term's norm is |strength|
    third = strength / 3.0
    return {"XX": third, "YY": third, "ZZ": third}


def chain(n: int, t_total: float = 1.0, coupling: float = 1.0) -> HamiltonianSchedule:
    """Nearest-neighbor chain with isotropic exchange of norm ``coupling``."""
    _check_common(n, t_total, coupling, n - 1)
    return _uniform_schedule(n, t_total, [(i, i + 1) for i in range(n - 1)], _heisenberg(coupling))


def disjoint_pairs(n: int, t_total: float = 1.0, coupling: float = 1.0) -> HamiltonianSchedule:
    """Matching (0,1), (2,3), ... -- the fully parallel interaction pattern."""
    _check_common(n, t_total, coupling, n // 2)
    pairs = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    return _uniform_schedule(n, t_total, pairs, _heisenberg(coupling))


def complete_mean_field(n: int, t_total: float = 1.0, coupling: float = 1.0) -> HamiltonianSchedule:
    """All-to-all ZZ couplings of equal strength."""
    _check_common(n, t_total, coupling, n * (n - 1) // 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _uniform_schedule(n, t_total, pairs, {"ZZ": coupling})


def random_graph(
    n: int,
    t_total: float = 1.0,
    p: float = 0.5,
    seed: int = 0,
    coupling: float = 1.0,
    segments: int = 1,
) -> HamiltonianSchedule:
    """Piecewise-constant schedule: per segment, an Erdos-Renyi pair set with
    random norm-``coupling`` terms.  Deterministic in ``seed``.

    Every segment's pairs and tracks are drawn first, segment after
    segment; then the peak norms of all their terms come from one
    eigensolve of the stacked pair matrices, and each ``Segment`` is built
    once, from its scaled tracks.
    """
    if segments < 1:
        raise BadParams("segments must be at least 1")
    rng = _random_source(n, t_total, p, seed, coupling, segments)
    draws = [_random_terms(rng, n, p, width=1) for _ in range(segments)]
    tracks = np.concatenate([t for _, t in draws])
    matrices = pauli_matrix(_term_coeffs(tracks, np.zeros(1)))  # a constant track's matrices are the same at every time
    scaled = _scaled_to_peak(tracks, matrices, coupling)
    ends = [(i * t_total) / segments for i in range(segments)] + [float(t_total)]
    parts = np.split(scaled, np.cumsum([len(pairs) for pairs, _ in draws])[:-1])
    segs = (Segment(t0, t1, pairs, part) for t0, t1, (pairs, _), part in zip(ends, ends[1:], draws, parts))
    return HamiltonianSchedule(n, tuple(segs))


def random_time_varying(
    n: int,
    t_total: float = 1.0,
    p: float = 0.5,
    seed: int = 0,
    coupling: float = 1.0,
    degree: int = 2,
) -> HamiltonianSchedule:
    """Single segment with random polynomial coefficient tracks, rescaled so
    the largest sampled norm over [0,T] equals ``coupling``."""
    rng = _random_source(n, t_total, p, seed, coupling, 1)
    if not 0 <= degree <= MAX_POLY_DEGREE:
        raise BadParams(f"degree must lie in [0, {MAX_POLY_DEGREE}]")
    pairs, tracks = _random_terms(rng, n, p, width=degree + 1)
    raw = Segment(0.0, float(t_total), pairs, tracks)  # its matrices_at names a term beyond the float range
    scaled = _scaled_to_peak(tracks, raw.matrices_at(np.linspace(0.0, t_total, 33)), coupling)
    return HamiltonianSchedule(n, (Segment(0.0, float(t_total), pairs, scaled),))


def _random_source(n: int, t_total: float, p: float, seed: int, coupling: float, segments: int):
    """The generator of a random schedule of ``segments`` segments, after the
    checks the random kinds share."""
    _check_common(n, t_total, coupling, n * (n - 1) // 2 * segments)
    if not 0.0 <= p <= 1.0:
        raise BadParams("edge probability p must lie in [0,1]")
    if seed < 0:
        raise BadParams(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _random_terms(rng, n, p, width):
    """An Erdos-Renyi pair set and its tracks: each pair, kept with
    probability ``p``, draws a (16, ``width``) track of standard normals
    with a zero II row."""
    pairs, draws = [], []
    for k in range(n):
        for l in range(k + 1, n):
            if rng.random() < p:
                pairs.append((k, l))
                draws.append(rng.standard_normal((16, width)))
    tracks = np.reshape(draws, (len(pairs), 16, width))
    tracks[:, 0] = 0.0  # traceless: no global-phase component
    return tuple(pairs), tracks


def _scaled_to_peak(tracks, matrices, coupling):
    """``tracks`` scaled so that each term's largest norm among its pair
    ``matrices``, (probes, terms, 4, 4), is ``coupling``: one eigensolve of
    them all."""
    peaks = linalg.hermitian_norms(matrices).max(axis=0)
    if np.any(peaks <= 1e-9):  # every Gaussian of a term near zero: probability zero
        raise RuntimeError("random coefficient draw degenerated")
    return (coupling / peaks)[:, None, None] * tracks


def _check_common(n: int, t_total: float, coupling: float, terms: int):
    """Checks shared by the generators; ``terms`` is the most pair terms the
    generator can produce over all its segments (every pair drawn)."""
    if n < 2:
        raise BadParams("need at least two qubits")
    if not (math.isfinite(t_total) and t_total > 0):
        raise BadParams(f"total time must be a finite positive number, got {t_total}")
    if not math.isfinite(coupling):
        raise BadParams(f"coupling must be a finite number, got {coupling}")
    if terms > MAX_GENERATED_TERMS:
        raise TooLarge(
            f"the schedule may hold {terms} pair terms (pairs x segments); "
            f"generators are limited to {MAX_GENERATED_TERMS}"
        )


GENERATORS = {
    "chain": chain,
    "disjoint_pairs": disjoint_pairs,
    "complete_mean_field": complete_mean_field,
    "random_graph": random_graph,
    "random_time_varying": random_time_varying,
}


def generate(kind: str, **params) -> HamiltonianSchedule:
    """Dispatch to a named schedule generator; see ``GENERATORS`` for kinds."""
    try:
        fn = GENERATORS[kind]
    except KeyError:
        raise BadParams(f"unknown generator kind {kind!r}; choose from {sorted(GENERATORS)}")
    try:
        return fn(**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for generator {kind!r}: {exc}") from None
