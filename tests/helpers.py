"""Shared test utilities: random ensembles and independent dense oracles.

The oracles here deliberately avoid the package's own code paths: pair
matrices come from numpy's ``polyval`` one Pauli label at a time, operator
embedding works bit-by-bit on basis indices, the norm oracle goes through
the characteristic polynomial, and the chromatic-index oracle is a plain
depth-first enumeration over edges in natural order.  The reference
integrator is classic RK4, fixed-step or step-halving, on generators
built from the embedding oracle: the package integrates by Taylor series
and must agree with it within the tolerance.  The parity oracles at the
end keep earlier, slower forms of package loops (per-term and per-qubit
random draws, level decomposition that searches every level afresh or
recounts the max degree and the classes on every level, the coloring
search that scans every edge at every node, gates
built and checked one at a time, coefficient rows trimmed one at a time,
pair matrices and W evaluated one sample time at a time) that the package
must match bit for bit, and the convergence study's
reference states evolved one at a time, which its block of states must
match to rounding.
"""

import contextlib
import copy
import json
import math
import signal
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from chromlc import analysis, cli, compiler, graphs, hamiltonian, linalg, simulator
from chromlc.errors import ToleranceUnreachable
from chromlc.compiler import Gate, GateSchedule, Step
from chromlc.graphs import EdgeColoring, Level, LevelDecomposition
from chromlc.hamiltonian import PAULI_LABELS, HamiltonianSchedule, Segment, pauli_matrix


def haar_unitary(dim, rng):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_hermitian(dim, rng, norm=None):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2.0
    if norm is not None:
        m *= norm / float(linalg.hermitian_norms(m))
    return m


def unitary_angle(u) -> float:
    """Smallest norm of a Hermitian generator of ``u``: the largest |phase| of
    its eigenvalues, from numpy's general eigensolver."""
    return float(np.max(np.abs(np.angle(np.linalg.eigvals(u)))))


def gate_from_unitary(pair, u):
    """The gate on ``pair`` that runs the principal logarithm A of ``u``
    (u = exp(-i*A)) for duration 1.0: its unitary is ``u`` to rounding, and
    it survives a gate document unchanged, since the reader builds it the
    same way."""
    return Gate.from_terms([pair], [hamiltonian.pauli_coeffs(-linalg.unitary_log(u))], [0], [1.0])[0]


def w_at(s, t, known=None):
    """W(t) as ``index`` computes it: the level sum of the snapshot's pairs and norms at ``t``."""
    snap = hamiltonian.snapshot(s, t)
    return graphs.level_decompose(snap.pairs, snap.norms.tolist(), {} if known is None else known).weighted_sum()


def heavier_than(pairs, weights, r):
    """The ``pairs`` of weight above ``r``: the threshold slice at ``r``."""
    return tuple(pair for pair, w in zip(pairs, weights) if w > r)


def degrees(pairs):
    """vertex -> degree over the vertices ``pairs`` touch."""
    return Counter(v for pair in pairs for v in pair)


def max_degree(pairs):
    """The largest vertex degree of ``pairs``, 0 for none."""
    return max(degrees(pairs).values(), default=0)


def random_gate_schedule(n, rng, max_steps=6, two_gate_prob=0.5):
    """Random gate schedule with Haar gates, at most two disjoint gates per step."""
    steps = []
    for _ in range(int(rng.integers(1, max_steps + 1))):
        if n >= 4 and rng.random() < two_gate_prob:
            perm = list(rng.permutation(n)[:4])
            pairs = [tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))]
        else:
            pairs = [tuple(sorted(rng.choice(n, size=2, replace=False)))]
        gates = [gate_from_unitary(p, haar_unitary(4, rng)) for p in sorted(pairs)]
        steps.append(Step(tuple(gates)))
    return GateSchedule(n, tuple(steps))


def embed_pair_operator(mat4, n, k, l):
    """Dense 2^n x 2^n embedding of a two-site operator, built bit by bit."""
    dim = 2**n
    u = np.asarray(mat4, dtype=complex).reshape(2, 2, 2, 2)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        bk, bl = bits[k], bits[l]
        for ok in (0, 1):
            for ol in (0, 1):
                amp = u[ok, ol, bk, bl]
                if amp == 0:
                    continue
                nb = list(bits)
                nb[k], nb[l] = ok, ol
                row = sum(bit << (n - 1 - q) for q, bit in enumerate(nb))
                out[row, col] += amp
    return out


def embed_single_operator(mat2, n, q):
    dim = 2**n
    m = np.asarray(mat2, dtype=complex)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - j)) & 1 for j in range(n)]
        for o in (0, 1):
            amp = m[o, bits[q]]
            if amp == 0:
                continue
            nb = list(bits)
            nb[q] = o
            row = sum(bit << (n - 1 - j) for j, bit in enumerate(nb))
            out[row, col] += amp
    return out


def pair_segment(t_start, t_end, terms):
    """Segment from ``{pair: {label: ascending-degree coefficients}}``; omitted labels are zero."""
    width = max([1] + [len(poly) for coeffs in terms.values() for poly in coeffs.values()])
    tracks = np.zeros((len(terms), 16, width))
    for i, coeffs in enumerate(terms.values()):
        for label, poly in coeffs.items():
            tracks[i, PAULI_LABELS.index(label), : len(poly)] = poly
    return Segment(t_start, t_end, tuple(terms), tracks)


def reference_matrices(seg: Segment, t):
    """H_kl(t) of every term of ``seg``, evaluated label by label with ``polyval``."""
    mats = [pauli_matrix([polyval(t, track) for track in rows]) for rows in seg.tracks]
    return np.array(mats, dtype=complex).reshape(-1, 4, 4)


def dense_hamiltonian(s: HamiltonianSchedule, t):
    """Full-register H(t) assembled from the dense embedding oracle."""
    dim = 2**s.n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    seg = s.segment_at(t)
    for pair, mat in zip(seg.pairs, reference_matrices(seg, t)):
        h += embed_pair_operator(mat, s.n_qubits, *pair)
    return h


def time_varying_schedule(n, segments, seed=0, **kwargs):
    """``segments`` equal time-varying segments tiling [0, 1].  Segment i keeps the
    tracks of ``random_time_varying(n, (i + 1) / segments, seed=seed + i, **kwargs)``
    on the last stretch of that draw's span, where its sampled norms stay at most the coupling."""
    out = []
    for i in range(segments):
        (seg,) = hamiltonian.random_time_varying(n, (i + 1) / segments, seed=seed + i, **kwargs).segments
        out.append(Segment(i / segments, (i + 1) / segments, seg.pairs, seg.tracks))
    return HamiltonianSchedule(n, tuple(out))


def exact_unitary_piecewise_constant(s: HamiltonianSchedule):
    """Product of per-segment matrix exponentials (exact for constant segments)."""
    dim = 2**s.n_qubits
    u = np.eye(dim, dtype=complex)
    for seg in s.segments:
        h = dense_hamiltonian(s, (seg.t_start + seg.t_end) / 2.0)
        u = linalg.expm_i(h, seg.length) @ u
    return u


def dense_schedule_unitary(g: GateSchedule):
    """Gate-schedule unitary via the dense embedding oracle."""
    dim = 2**g.n_qubits
    u = np.eye(dim, dtype=complex)
    for step in g.steps:
        for gate in step.gates:
            u = embed_pair_operator(gate.unitary, g.n_qubits, *gate.pair) @ u
    return u


def charpoly_max_abs_root(a):
    """Largest |root| of det(xI - A) via Faddeev-LeVerrier plus np.roots."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return float(np.max(np.abs(np.roots(coeffs))))


def oracle_chromatic_index(pairs, n):
    """Exhaustive enumeration: natural edge order, no ordering heuristics.

    The color count starts at the counting bound ceil(m / (n // 2)) (a color
    class is a matching) instead of 1, which spares the exhaustive failures
    on dense overfull graphs.
    """
    pairs = sorted(tuple(p) for p in pairs)
    if not pairs:
        return 0
    used = [set() for _ in range(n)]

    def colorable(k, i=0):
        if i == len(pairs):
            return True
        a, b = pairs[i]
        for c in range(k):
            if c not in used[a] and c not in used[b]:
                used[a].add(c)
                used[b].add(c)
                if colorable(k, i + 1):
                    used[a].discard(c)
                    used[b].discard(c)
                    return True
                used[a].discard(c)
                used[b].discard(c)
        return False

    k = -(-len(pairs) // (n // 2))
    while not colorable(k):
        k += 1
    return k


def single_pair_schedule(coeff_map, t_total=1.0, n=2, pair=(0, 1)):
    """Schedule with one pair term; coeff_map: label -> poly tuple."""
    return HamiltonianSchedule(n, (pair_segment(0.0, float(t_total), {pair: coeff_map}),))


def two_pair_noncommuting(n=3, t_total=1.0):
    """XX on (0,1) and ZZ on (1,2): shared vertex, non-commuting terms."""
    seg = pair_segment(0.0, float(t_total), {(0, 1): {"XX": (1.0,)}, (1, 2): {"ZZ": (1.0,)}})
    return HamiltonianSchedule(n, (seg,))


def ghz_amplitudes(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def forbid_integrated_index(monkeypatch):
    """Make every binding of ``integrated_chromatic_index`` raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("integrated_chromatic_index was called")

    for module in (hamiltonian, compiler, cli, analysis):
        monkeypatch.setattr(module, "integrated_chromatic_index", refuse, raising=False)


@contextlib.contextmanager
def wall_clock_bound(seconds):
    """Fail the test when the block runs past ``seconds`` of wall time.

    SIGALRM turns a run that would go on for minutes into a failure.  The
    handler raises through ``pytest.fail``, whose exception is no
    ``Exception``, so ``cli.main`` (which reports an ``OSError`` such as
    ``TimeoutError`` as exit 2) cannot swallow it; ``pytrace=False`` keeps
    pytest from formatting the interrupted frames.
    """

    def expire(signum, frame):
        pytest.fail(f"ran past its {seconds} s bound", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def node_paths(node, path=()):
    """The path of every node of a decoded JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def replace_node(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``; ``doc`` itself is left alone."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([10**400, -(10**400), 2**64, 0, 1, -1])
    | st.sampled_from([1e308, -1e308, 1e-200, 1e-320, 5e-324])  # squares overflow or underflow
    | st.floats()  # NaN and infinities included; json writes them as NaN and Infinity
    | st.text(max_size=4)
)
FUZZ_VALUES = (
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(PAULI_LABELS) | st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    )
    | st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=30)  # over-long coefficient lists
    | st.builds(lambda n: [1.0] + [0.0] * n, st.integers(0, 5000))
)


# -- reference integrator -------------------------------------------------------

# RK4's stability region reaches 2 sqrt(2) ~ 2.83 on the imaginary axis: a
# segment's first pass takes steps whose length times the norm bound is at
# most this.
RK4_STABILITY_LIMIT = 2.8
RK4_MAX_HALVINGS = 24


def oracle_generators(seg: Segment, n):
    """[G_0, G_1, ...] with -i H(t) = sum_d t^d G_d on ``seg``, each term's degree-d
    coefficients turned into a matrix by ``pauli_matrix`` and embedded bit by bit."""
    gens = np.zeros((seg.tracks.shape[2], 2**n, 2**n), dtype=complex)
    for pair, rows in zip(seg.pairs, seg.tracks):
        for d in range(seg.tracks.shape[2]):
            gens[d] -= 1j * embed_pair_operator(pauli_matrix(rows[:, d]), n, *pair)
    return gens


def rk4_pass(gens, seg: Segment, steps, array):
    """``steps`` classic RK4 steps across ``seg`` of d array / dt = sum_d t^d G_d array."""

    def f(t, x):
        return sum(t**d * (g @ x) for d, g in enumerate(gens))

    h = seg.length / steps
    for i in range(steps):
        t0 = seg.t_start + i * h
        k1 = f(t0, array)
        k2 = f(t0 + h / 2, array + (h / 2) * k1)
        k3 = f(t0 + h / 2, array + (h / 2) * k2)
        k4 = f(t0 + h, array + h * k3)
        array = array + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return array


def pass_major_integrate_adaptive(s: HamiltonianSchedule, array, tol):
    """Step-halving RK4 on each segment in turn, within its share tol * L / T of the
    tolerance: whole passes over the segment, the step count doubled until the
    endpoint moves by less than share/4.  A segment starts from the steps of
    length T/16 that cover it, doubled while a step times the norm bound
    sum |c_d| t_max^d exceeds ``RK4_STABILITY_LIMIT``."""
    n = s.n_qubits
    h0 = s.total_time / 16.0
    for seg in s.segments:
        gens = oracle_generators(seg, n)
        share = tol * (seg.length / s.total_time)
        t_max = max(abs(seg.t_start), abs(seg.t_end))
        bound = sum(np.abs(seg.tracks[:, :, d]).sum() * t_max**d for d in range(seg.tracks.shape[2]))
        steps = max(1, math.ceil(seg.length / h0))
        while seg.length * bound / steps > RK4_STABILITY_LIMIT:
            steps *= 2
        prev = rk4_pass(gens, seg, steps, array)
        for _ in range(RK4_MAX_HALVINGS):
            steps *= 2
            cur = rk4_pass(gens, seg, steps, array)
            diff = cur - prev
            err = float(np.linalg.norm(diff)) if diff.ndim == 1 else float(np.max(np.linalg.norm(diff, axis=0)))
            if err < share / 4:
                break
            prev = cur
        else:
            raise ToleranceUnreachable("step halving cap reached")
        array = cur
    return array


# -- parity oracles -------------------------------------------------------------


def per_term_random_graph(n, t_total=1.0, p=0.5, seed=0, coupling=1.0, segments=1):
    """``random_graph``'s draws one term at a time, each normed by ``pauli_matrix`` and
    ``linalg.hermitian_norms`` and redrawn while degenerate: a list of (pairs, tracks) per segment."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(segments):
        pairs, coeffs = [], []
        for k in range(n):
            for l in range(k + 1, n):
                if rng.random() < p:
                    pairs.append((k, l))
                    for _ in range(100):
                        c = rng.standard_normal(16)
                        c[0] = 0.0
                        norm = float(linalg.hermitian_norms(pauli_matrix(c)))
                        if norm > 1e-9:
                            break
                    else:
                        raise RuntimeError("random coefficient draw degenerated repeatedly")
                    coeffs.append(c * (coupling / norm))
        out.append((tuple(pairs), np.reshape(coeffs, (len(pairs), 16, 1))))
    return out


def per_qubit_observable_factors(n_qubits, seed):
    """``MeanFieldObservable.random``'s factors drawn one qubit at a time, redrawn while degenerate."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n_qubits):
        for _ in range(100):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (h + h.conj().T) / 2
            norm = float(linalg.hermitian_norms(h))
            if norm > 1e-3:
                factors.append(h / norm)
                break
        else:
            raise RuntimeError("random observable draw degenerated repeatedly")
    return factors


def two_branch_spectral_distance(a, b):
    """``linalg.spectral_distance`` as it was while the operator norm had a
    Hermitian branch: the largest |eigenvalue| when a - b is Hermitian to
    1e-10 of its largest entry, the largest singular value otherwise."""
    d = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    if linalg.is_hermitian(d, 1e-10 * np.max(np.abs(d), initial=0.0)):
        return float(linalg.hermitian_norms(d))
    return float(np.linalg.norm(d, 2))


def restricted_to(coloring, pairs):
    """``coloring``'s classes cut down to ``pairs``, empty classes dropped, marked exact."""
    keep = set(pairs)
    classes = (tuple(p for p in cls if p in keep) for cls in coloring.classes)
    return EdgeColoring(tuple(cls for cls in classes if cls), True)


def weight_clusters(pairs, weights):
    """The ``(k, l, w)`` edges in ascending weight, split where consecutive
    weights differ by at least ``graphs.WEIGHT_MERGE_TOL``."""
    ordered = sorted(((k, l, float(w)) for (k, l), w in zip(pairs, weights)), key=lambda e: e[2])
    clusters = [[ordered[0]]]
    for e in ordered[1:]:
        if e[2] - clusters[-1][-1][2] < graphs.WEIGHT_MERGE_TOL:
            clusters[-1].append(e)
        else:
            clusters.append([e])
    return clusters


def restricting_level_decompose(pairs, weights):
    """``level_decompose`` with no dict of known colorings: every level that
    does not keep its inherited coloring is searched through
    ``graphs.color_edges``, and the inherited coloring is rebuilt from every
    class of the level below."""
    if not pairs:
        return LevelDecomposition(())
    clusters = weight_clusters(pairs, weights)
    deg = degrees(pairs)
    remaining = set(pairs)
    levels = []
    for j, cluster in enumerate(clusters):
        threshold = max(e[2] for e in cluster)
        inherited = None
        if levels:
            for k, l, _ in clusters[j - 1]:
                deg[k] -= 1
                deg[l] -= 1
                remaining.discard((k, l))
            inherited = restricted_to(levels[-1].coloring, remaining)
            if len(inherited.classes) == max(deg.values()):
                levels.append(Level(threshold, inherited))
                continue
        coloring = graphs.color_edges(tuple(e[:2] for cl in clusters[j:] for e in cl))
        if inherited is not None and len(coloring.classes) > len(inherited.classes):
            levels.append(Level(threshold, inherited._replace(exact=False)))
        else:
            levels.append(Level(threshold, coloring))
    return LevelDecomposition(tuple(levels))


def record_searches(monkeypatch):
    """Wrap ``graphs._color_edges``, through which ``color_edges`` and
    ``level_decompose`` color; the returned list gets the edge set of every
    call, as a frozenset of pairs."""
    searched = []
    color_edges = graphs._color_edges

    def recording(pairs, deg):
        searched.append(frozenset(pairs))
        return color_edges(pairs, deg)

    monkeypatch.setattr(graphs, "_color_edges", recording)
    return searched


def full_scan_search_edge_coloring(n_vertices, order, k, budget):
    """``graphs._search_edge_coloring`` as it was before it kept a list of the
    uncolored edges: every node scans all of ``order`` and skips the colored
    edges, and counts the free colors at each edge's ends."""
    m = len(order)
    colors = [-1] * m
    used = [0] * n_vertices
    full = (1 << k) - 1
    nodes = 0

    def rec(left, high):
        nonlocal nodes
        if not left:
            return True
        nodes += 1
        if nodes > budget:
            return None
        best, best_free = -1, k + 1
        for i in range(m):
            if colors[i] < 0:
                u, v = order[i]
                free = (full & ~(used[u] | used[v])).bit_count()
                if free < best_free:
                    if not free:
                        return False
                    best, best_free = i, free
        u, v = order[best]
        avail = full & ~(used[u] | used[v]) & ((2 << (high + 1)) - 1)
        while avail:
            bit = avail & -avail
            c = bit.bit_length() - 1
            colors[best] = c
            used[u] |= bit
            used[v] |= bit
            found = rec(left - 1, c if c > high else high)
            if found is not False:
                return found
            used[u] ^= bit
            used[v] ^= bit
            avail ^= bit
        colors[best] = -1
        return False

    found = rec(m, -1)
    return colors if found else found


def recounting_level_decompose(pairs, weights, known=None):
    """``graphs.level_decompose`` as it was before it kept a degree histogram
    and a class count: every level takes the max degree over all vertices,
    builds its inherited coloring and counts that coloring's classes."""
    if not pairs:
        return LevelDecomposition(())
    clusters = weight_clusters(pairs, weights)
    deg = degrees(pairs)
    remaining = set(pairs)
    classes = []
    holder = {}
    levels = []
    for j, cluster in enumerate(clusters):
        threshold = max(e[2] for e in cluster)
        if levels:
            gone = set()
            for k, l, _ in clusters[j - 1]:
                deg[k] -= 1
                deg[l] -= 1
                gone.add((k, l))
            remaining -= gone
            for c in {holder.pop(pair) for pair in gone}:
                classes[c] = tuple(pair for pair in classes[c] if pair not in gone)
            inherited = EdgeColoring(tuple(cls for cls in classes if cls), True)
            if len(inherited.classes) == max(deg.values()):
                levels.append(Level(threshold, inherited))
                continue
        key = frozenset(remaining)
        coloring = None if known is None else known.get(key)
        if coloring is None:
            coloring = graphs.color_edges(tuple(e[:2] for cl in clusters[j:] for e in cl))
            if known is not None:
                known[key] = coloring
        levels.append(Level(threshold, coloring))
        classes = list(coloring.classes)
        holder = {pair: c for c, cls in enumerate(classes) for pair in cls}
    return LevelDecomposition(tuple(levels))


def per_gate_gates_from_eig(pairs, w, v, terms, rows, durations):
    """``compiler._gates_from_eig`` gate by gate, each built by the plain
    ``Gate(...)`` record constructor from its table row's
    eigendecomposition: its unitary V diag(exp(-i tau w)) V^dagger, its
    angle |tau| ||H|| up to pi and past pi the largest |phase| of its own
    eigenvalues, its term its table row and its duration tau."""
    gates = []
    for pair, i, tau in zip(pairs, rows, durations.tolist()):
        phases = np.exp(-1j * (tau * w[i]))
        angle = abs(tau) * np.max(np.abs(w[i]))
        angle = float(angle if angle <= math.pi else np.max(np.abs(np.angle(phases))))
        gates.append(Gate(pair, (v[i] * phases) @ v[i].conj().T, angle, terms[i], tau))
    return gates


def per_level_sample_steps(snap, t_mid, delta, known):
    """``compiler._sample_steps`` with one ``per_gate_gates_from_eig`` call per
    level (``t_mid``, which only names a failing subinterval, is not read)."""
    rows = {pair: i for i, pair in enumerate(snap.pairs)}
    decomp = graphs.level_decompose(snap.pairs, snap.norms.tolist(), known)
    steps = []
    prev_r = 0.0
    for level in decomp.levels:
        angle = delta * (level.threshold - prev_r)
        prev_r = level.threshold
        pairs = [pair for cls in level.coloring.classes for pair in cls]
        index = [rows[pair] for pair in pairs]
        durations = np.full(len(index), angle) / snap.norms[index]
        eig = (snap.eigenvalues, snap.eigenvectors, snap.coeffs)
        gates = dict(zip(pairs, per_gate_gates_from_eig(pairs, *eig, index, durations)))
        for matching in level.coloring.classes:
            steps.append(Step(tuple(gates[pair] for pair in matching)))
    levels = (
        decomp.thresholds(),
        tuple(len(lv.coloring.classes) for lv in decomp.levels),
        tuple(lv.coloring.exact for lv in decomp.levels),
    )
    return steps, levels


def per_step_dumps_gates(g: GateSchedule) -> str:
    """``serialization.dumps_gates`` as it was written before its gates
    became f-strings: one dict per gate and one call of the standard
    library's C encoder per distinct step, the same table of terms by their
    bytes and the same text reused for a step object that recurs."""
    encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
    rows, texts, steps = {}, {}, []
    for step in g.steps:
        text = texts.get(id(step))
        if text is None:
            gates = [
                {"pair": gate.pair, "term": rows.setdefault(gate.term.tobytes(), len(rows)), "duration": gate.duration}
                for gate in step.gates
            ]
            text = texts[id(step)] = encode({"gates": gates})
        steps.append(text)
    terms = encode(np.frombuffer(b"".join(rows), dtype=float).reshape(-1, 16).tolist())
    header = f'{{"format":"chromlc-gates","version":3,"n_qubits":{g.n_qubits:d},"terms":{terms},"steps":['
    return header + ",".join(steps) + "]}\n"


def per_time_matrices(seg: Segment, t):
    """``Segment.matrices_at(t)`` for one time, as it was written before it took
    vectors: Horner on the (terms, 16) coefficients, then one (1, 16) row
    times the Pauli stack per term."""
    c = np.zeros(seg.tracks.shape[:2])
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(seg.tracks.shape[2] - 1, -1, -1):
            c = c * t + seg.tracks[:, :, d]
        return np.matmul(c[:, None, :], hamiltonian.PAULI_PRODUCTS.reshape(16, 16)).reshape(-1, 4, 4)


def per_time_integrated_chromatic_index(s: HamiltonianSchedule, samples: int):
    """``hamiltonian.integrated_chromatic_index`` with one ``w_at`` call per
    sample time, in the same order and sharing one dict of colorings."""
    times, values, total, err, known = [], [], 0.0, 0.0, {}
    for seg in s.segments:
        mids = seg.t_start + (np.arange(samples) + 0.5) * (seg.length / samples)
        times.extend(float(x) for x in mids)
        if seg.is_constant:
            w = w_at(s, float(mids[0]), known)
            values.extend([w] * samples)
            total += w * seg.length
            continue
        vals = [w_at(s, float(x), known) for x in mids]
        coarse = seg.length / samples * sum(vals)
        mids2 = seg.t_start + (np.arange(2 * samples) + 0.5) * (seg.length / (2 * samples))
        fine = seg.length / (2 * samples) * sum(w_at(s, float(x), known) for x in mids2)
        values.extend(vals)
        total += coarse
        err += abs(fine - coarse)
    return hamiltonian.IndexProfile(np.array(times), np.array(values), total, err)


def per_time_snapshots(seg, times):
    """``hamiltonian.snapshots`` as one grid of one time per time, the form
    of ``hamiltonian.snapshot``."""
    return (next(hamiltonian.snapshots(seg, [t])) for t in times)


def per_row_dumps_schedule(s: HamiltonianSchedule) -> str:
    """``serialization.dumps_schedule`` with one ``np.trim_zeros`` per coefficient row."""
    segments = []
    for seg in s.segments:
        terms = []
        for (k, l), rows in zip(seg.pairs, seg.tracks):
            coeffs = {}
            for label, row in zip(PAULI_LABELS, rows):
                poly = np.trim_zeros(row, "b")
                if poly.size:
                    coeffs[label] = poly.tolist()
            terms.append({"pair": [k, l], "coeffs": coeffs})
        segments.append({"t_start": seg.t_start, "t_end": seg.t_end, "terms": terms})
    doc = {"format": "chromlc-schedule", "version": 1, "n_qubits": s.n_qubits, "segments": segments}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def per_state_convergence_errors(s: HamiltonianSchedule, epsilons, tol):
    """``analysis.convergence_study``'s error column past full unitaries, one
    reference state at a time: one ``propagate`` through ``s`` per state,
    renormalized, then one ``propagate`` through the gates per state and
    epsilon."""
    n, k = s.n_qubits, analysis.REFERENCE_STATES
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
    raw /= np.linalg.norm(raw, axis=0)
    initial = [raw[:, i] for i in range(k)]
    reference = [simulator.propagate(s, psi, tol) for psi in initial]
    reference = [ref / np.linalg.norm(ref) for ref in reference]
    errors = []
    for eps in epsilons:
        gates, _ = compiler.compile(s, eps)
        errors.append(max(
            float(np.linalg.norm(simulator.propagate(gates, psi) - ref))
            for psi, ref in zip(initial, reference)
        ))
    return errors
