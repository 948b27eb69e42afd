"""Reference results for the benchmark's output checks, computed with numpy
from the input documents alone.

Nothing here imports chromlc: norms come from ``numpy.linalg.eigvalsh``,
chromatic indices from a small exact search written for this file, and the
exact evolution from dense matrix exponentials.  For a schedule and a
subinterval length this gives what a correct compilation must produce:

* the step and gate counts of an exact level-by-level coloring,
* the midpoint Riemann sum of W(t), which the weighted depth must equal,
* the integrated index I (exact on constant segments, 64-sample midpoint
  quadrature otherwise, as the package computes it),
* a first-order bound on the 2-norm state error of the compiled schedule,
* the exact final state for a fixed seeded product state.
"""

from __future__ import annotations

import math

import numpy as np

from coloring import chromatic_index

ZERO_NORM_TOL = 1e-12     # pair terms at or below this norm are absent
WEIGHT_MERGE_TOL = 1e-12  # norms closer than this share a threshold level
INDEX_SAMPLES = 64        # midpoint samples per non-constant segment for I
MIDPOINT_STEPS = 64       # exponential-midpoint steps per non-constant segment
STATE_SEED = 20000094     # the fixed product state of the state-error check

_P = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
PAULI = np.stack([np.kron(_P[lab[0]], _P[lab[1]]) for lab in LABELS])


# -- schedule documents --------------------------------------------------------


def segments(doc):
    """[(t_start, t_end, [((k, l), coeffs)])] with coeffs a (16, degree+1) array."""
    out = []
    for seg in doc["segments"]:
        terms = []
        for term in seg["terms"]:
            polys = [term["coeffs"].get(lab, []) for lab in LABELS]
            width = max(1, max(len(p) for p in polys))
            coeffs = np.zeros((16, width))
            for i, p in enumerate(polys):
                coeffs[i, : len(p)] = p
            terms.append((tuple(term["pair"]), coeffs))
        out.append((float(seg["t_start"]), float(seg["t_end"]), terms))
    return out


def _matrix(coeffs, t, derivative=0):
    powers = np.array(
        [
            math.perm(j, derivative) * t ** (j - derivative) if j >= derivative else 0.0
            for j in range(coeffs.shape[1])
        ]
    )
    return np.tensordot(coeffs @ powers, PAULI, axes=(0, 0))


def _is_constant(terms):
    return all(not np.any(c[:, 1:]) for _, c in terms)


def snapshot(terms, t):
    """{pair: (matrix, norm)} of the pairs whose norm exceeds the zero tolerance."""
    out = {}
    for pair, coeffs in terms:
        m = _matrix(coeffs, t)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        if norm > ZERO_NORM_TOL:
            out[pair] = (m, norm)
    return out


# -- threshold levels ---------------------------------------------------------


def levels(snap):
    """[(width, chromatic index, edge count)] of the threshold levels, ascending."""
    ordered = sorted(snap.items(), key=lambda item: item[1][1])
    clusters = [[ordered[0]]] if ordered else []
    for item in ordered[1:]:
        if item[1][1] - clusters[-1][-1][1][1] < WEIGHT_MERGE_TOL:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    out = []
    prev = 0.0
    for j, cluster in enumerate(clusters):
        edges = [pair for cl in clusters[j:] for pair, _ in cl]
        threshold = max(norm for _, (_, norm) in cluster)
        out.append((threshold - prev, chromatic_index(edges), len(edges)))
        prev = threshold
    return out


def weighted_index(snap) -> float:
    return sum(width * chi for width, chi, _ in levels(snap))


# -- state vectors ---------------------------------------------------------------


def apply_pair(m4, psi, n, k, l):
    """Apply a 4x4 operator on qubits (k, l); qubit 0 is the most significant bit."""
    tensor = psi.reshape((2,) * n + psi.shape[1:])
    out = np.tensordot(np.asarray(m4).reshape(2, 2, 2, 2), tensor, axes=([2, 3], [k, l]))
    return np.moveaxis(out, [0, 1], [k, l]).reshape(psi.shape)


def product_state(n, seed=STATE_SEED):
    rng = np.random.default_rng(seed)
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.kron(psi, q / np.linalg.norm(q))
    return psi


def _dense(n, snap_items):
    eye = np.eye(2**n, dtype=complex)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for (k, l), m in snap_items:
        h += apply_pair(m, eye, n, k, l)
    return h


def _expm_apply(h, dt, psi):
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * dt * w) * (v.conj().T @ psi))


def exact_evolution(n, segs, psi, steps=MIDPOINT_STEPS):
    """psi evolved under the schedule: exact on constant segments, and
    Richardson-extrapolated exponential midpoint steps elsewhere."""
    for t0, t1, terms in segs:
        if _is_constant(terms):
            h = _dense(n, [(pair, _matrix(c, t0)) for pair, c in terms])
            psi = _expm_apply(h, t1 - t0, psi)
            continue
        runs = []
        for count in (steps, 2 * steps):
            cur = psi
            d = (t1 - t0) / count
            for i in range(count):
                mid = t0 + (i + 0.5) * d
                cur = _expm_apply(_dense(n, [(p, _matrix(c, mid)) for p, c in terms]), d, cur)
            runs.append(cur)
        psi = (4 * runs[1] - runs[0]) / 3
    return psi


def _commutator_norm(a, pa, b, pb):
    """Operator norm of [A, B] for two-qubit terms, embedded on their joint qubits."""
    qubits = sorted(set(pa) | set(pb))
    n = len(qubits)
    eye = np.eye(2**n, dtype=complex)
    da = apply_pair(a, eye, n, qubits.index(pa[0]), qubits.index(pa[1]))
    db = apply_pair(b, eye, n, qubits.index(pb[0]), qubits.index(pb[1]))
    return float(np.linalg.norm(da @ db - db @ da, 2))


def _subinterval_error_bound(terms, mid, d, snap):
    """Bound on ||compiled step product - exact propagator|| for one subinterval.

    The level pieces of all edges multiply to a product formula for
    exp(-i d H(mid)), whose error is at most (d^2/2) * sum ||[H_e, H_f]||
    over distinct edges sharing a qubit.  On a time-varying segment the
    midpoint rule adds the leading Magnus terms d^3/24 ||H''|| +
    d^3/12 ||[H, H']||, doubled to cover the higher orders.
    """
    pairs = list(snap)
    total = 0.0
    for i, e in enumerate(pairs):
        for f in pairs[i + 1 :]:
            if set(e) & set(f):
                total += _commutator_norm(snap[e][0], e, snap[f][0], f)
    bound = d * d / 2 * total
    if not _is_constant(terms):
        coeffs = dict(terms)
        second = sum(float(np.linalg.norm(_matrix(coeffs[p], mid, 2), 2)) for p in pairs)
        mixed = 0.0
        for e in pairs:
            first_e = _matrix(coeffs[e], mid, 1)
            for f in pairs:
                if set(e) & set(f):
                    mixed += _commutator_norm(snap[f][0], f, first_e, e)
        bound += 2 * (d**3 / 24 * second + d**3 / 12 * mixed)
    return bound


def _propagator(m, d):
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * d * w)) @ v.conj().T


def compile_reference(doc, epsilon):
    """Everything a correct ``compile --epsilon`` of ``doc`` must reproduce.

    ``subintervals`` lists, in time order, each subinterval's step count and
    the propagator exp(-i d H_e(mid)) that the gates on each edge e must
    multiply to.
    """
    n = int(doc["n_qubits"])
    segs = segments(doc)
    subintervals = []
    riemann = integral = bound = 0.0
    for t0, t1, terms in segs:
        length = t1 - t0
        count = max(1, math.ceil(length / epsilon - 1e-12))
        d = length / count
        for i in range(count):
            mid = t0 + (i + 0.5) * d
            snap = snapshot(terms, mid)
            lv = levels(snap)
            subintervals.append(
                (
                    sum(chi for _, chi, _ in lv),
                    sum(m for _, _, m in lv),
                    {pair: _propagator(m, d) for pair, (m, _) in snap.items()},
                )
            )
            riemann += d * sum(width * chi for width, chi, _ in lv)
            bound += _subinterval_error_bound(terms, mid, d, snap)
        samples = 1 if _is_constant(terms) else INDEX_SAMPLES
        h = length / samples
        integral += h * sum(
            weighted_index(snapshot(terms, t0 + (j + 0.5) * h)) for j in range(samples)
        )
    psi0 = product_state(n)
    return {
        "n_qubits": n,
        "piecewise_constant": all(_is_constant(terms) for _, _, terms in segs),
        "steps": sum(sub[0] for sub in subintervals),
        "gates": sum(sub[1] for sub in subintervals),
        "subintervals": subintervals,
        "riemann_depth": riemann,
        "integral": integral,
        "state_err_bound": bound,
        "psi0": psi0,
        "psi_exact": exact_evolution(n, segs, psi0),
    }
