"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.
"""

import math
import time
from itertools import combinations, permutations

import numpy as np

from chromlc import analysis, linalg
from chromlc.compiler import compile, embed_discrete, rechromatize, trotterize, weighted_depth
from chromlc.graphs import EdgeColoring, color_edges, edge_color_vizing
from chromlc.hamiltonian import (
    chain,
    integrated_chromatic_index,
    random_graph,
    snapshot,
)
from chromlc.serialization import (
    dumps_gates,
    dumps_schedule,
    loads_gates,
    loads_schedule,
)
from chromlc.simulator import (
    MeanFieldObservable,
    full_unitary,
    product_state,
    variance,
)

from helpers import (
    exact_unitary_piecewise_constant,
    ghz_amplitudes,
    haar_unitary,
    max_degree,
    oracle_chromatic_index,
    random_gate_schedule,
    random_hermitian,
    single_pair_schedule,
    two_pair_noncommuting,
    unitary_angle,
)


def _report(num, name, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} [{detail}; {time.time() - started:.1f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_weighted_depth_equals_integrated_index():
    started = time.time()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_dist = 0.0
    for _ in range(50):
        g = random_gate_schedule(4, rng)
        s = embed_discrete(g)
        gap = abs(weighted_depth(g) - integrated_chromatic_index(s).integral)
        dist = linalg.spectral_distance(full_unitary(g), exact_unitary_piecewise_constant(s))
        worst_gap = max(worst_gap, gap)
        worst_dist = max(worst_dist, dist)
    ok = worst_gap < 1e-9 and worst_dist < 1e-8
    _report(
        1,
        "discrete embedding identity",
        ok,
        f"50 schedules, worst depth gap {worst_gap:.2e}, worst unitary distance {worst_dist:.2e}",
        started,
    )


CONVERGENCE_SEEDS = tuple(range(100, 110))
CONVERGENCE_EPSILONS = (0.2, 0.1, 0.05, 0.025)


def _convergence_ensemble():
    return [
        random_graph(4, 1.0, p=0.7, seed=seed, coupling=0.3)
        for seed in CONVERGENCE_SEEDS
    ]


def test_c02_compiled_unitary_convergence():
    started = time.time()
    problems = []
    engaged = 0
    for s in _convergence_ensemble():
        rows = analysis.convergence_study(s, CONVERGENCE_EPSILONS, tol=1e-10)
        problems.extend(analysis.check_convergence(rows))
        engaged += sum(
            1
            for a, b in zip(rows, rows[1:])
            if a.error <= analysis.RATIO_ENGAGE and b.error >= analysis.NOISE_FLOOR
        )
    ok = not problems and engaged >= len(CONVERGENCE_SEEDS)
    _report(
        2,
        "compiled unitary convergence",
        ok,
        f"10 schedules, {engaged} ratio checks engaged, problems: {problems or 'none'}",
        started,
    )


def test_c03_weighted_depth_convergence():
    started = time.time()
    worst = 0.0
    for s in _convergence_ensemble():
        target = integrated_chromatic_index(s).integral
        for eps in CONVERGENCE_EPSILONS:  # every epsilon divides the unit segment
            _, report = compile(s, eps)
            worst = max(worst, abs(report.weighted_depth - target))
    constant_ok = worst < 1e-9

    # linear coefficient ramp with curved norm sqrt(1 + t^2): the depth gap
    # is the midpoint-rule error and must shrink by >= 1.7 per halving
    ramp = single_pair_schedule({"ZI": (1.0,), "XI": (0.0, 1.0)})
    exact = (math.sqrt(2.0) + math.asinh(1.0)) / 2.0
    gaps = []
    for eps in CONVERGENCE_EPSILONS:
        _, report = compile(ramp, eps)
        gaps.append(abs(report.weighted_depth - exact))
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    ramp_ok = all(r >= 1.7 for r in ratios)
    ok = constant_ok and ramp_ok
    _report(
        3,
        "weighted depth convergence",
        ok,
        f"constant worst gap {worst:.2e}, ramp gap ratios {[f'{r:.2f}' for r in ratios]}",
        started,
    )


def test_c04_chain_parallelizes_to_two_layers():
    started = time.time()
    ok = True
    depths = []
    for n in (4, 6):
        s = chain(n, 1.0, 1.0)
        gates, report = compile(s, 0.25)
        depths.append(report.weighted_depth)
        if abs(report.weighted_depth - 2.0) >= 1e-9:
            ok = False
        even = tuple((i, i + 1) for i in range(0, n - 1, 2))
        odd = tuple((i, i + 1) for i in range(1, n - 1, 2))
        for step in gates.steps:
            if tuple(g.pair for g in step.gates) not in (even, odd):
                ok = False
    _report(4, "chain compiles to bond matchings", ok, f"weighted depths {depths}", started)


def _connected_canonical_masks(n):
    """Lexicographically least representative of every connected graph on n labeled vertices."""
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    mappings = []
    for perm in permutations(range(n)):
        mappings.append(
            [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        )

    def connected(mask):
        adj = [[] for _ in range(n)]
        for i, (a, b) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[a].append(b)
                adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    seen_orbits = set()
    out = []
    for mask in range(1 << m):
        if mask in seen_orbits or not connected(mask):
            continue
        out.append([pairs[i] for i in range(m) if (mask >> i) & 1])
        for mapping in mappings:
            image = 0
            for i in range(m):
                if (mask >> i) & 1:
                    image |= 1 << mapping[i]
            seen_orbits.add(image)
    return out


def test_c05_chromatic_index_oracle_equivalence():
    started = time.time()
    counts = []
    ok = True
    for n in range(1, 7):
        graphs = _connected_canonical_masks(n)
        counts.append(len(graphs))
        for pairs in graphs:
            res = color_edges(pairs)
            if not res.exact or len(res.classes) != oracle_chromatic_index(pairs, n):
                ok = False
            if not res.is_valid_for(pairs):
                ok = False
    # connected graphs on 1..6 vertices up to isomorphism
    if counts != [1, 1, 2, 6, 21, 112]:
        ok = False

    rng = np.random.default_rng(55)
    for _ in range(500):
        nv = int(rng.integers(2, 21))
        p = float(rng.uniform(0.05, 0.9))
        pairs = tuple((i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < p)
        classes = edge_color_vizing(pairs)
        if not EdgeColoring(classes, False).is_valid_for(pairs):
            ok = False
        if len(classes) > max_degree(pairs) + 1:
            ok = False
    _report(
        5,
        "chromatic index oracle equivalence",
        ok,
        f"canonical counts {counts}, 500 random colorings within max degree + 1",
        started,
    )


def test_c06_variance_bound_sweeps():
    started = time.time()
    ok = True
    details = []
    for n, alpha, expected_bound in ((8, 0.25, 128.0), (6, 0.4, 3750.0)):
        records = analysis.variance_bound_experiment(n, alpha, trials=100, seed=600 + n)
        assert len(records) == 100
        if abs(records[0].bound - expected_bound) > 1e-8:
            ok = False
        violations = [r for r in records if r.slack < 0]
        if violations:
            ok = False
        peak = max(r.variance for r in records)
        details.append(f"n={n} alpha={alpha}: max V {peak:.3f} vs bound {records[0].bound:.0f}")
    baseline = analysis.variance_bound_experiment(8, 0.0, trials=25, seed=61)
    if any(r.variance > 8.0 + 1e-9 for r in baseline):
        ok = False
    _report(6, "variance bound sweeps", ok, "; ".join(details), started)


def test_c07_witness_sanity():
    started = time.time()
    ok = True
    for n in (4, 8, 12):
        obs = MeanFieldObservable.pauli(n, "z")
        ghz = ghz_amplitudes(n)
        if abs(variance(ghz, obs) - n * n) >= 1e-9:
            ok = False
        plus = np.full(2, 1 / np.sqrt(2), dtype=complex)
        uniform = product_state([plus] * n)
        if abs(variance(uniform, obs) - n) >= 1e-9:
            ok = False
    _report(7, "entanglement witness sanity", ok, "GHZ gives n^2, product gives n", started)


def test_c08_sequential_baseline_first_order():
    started = time.time()
    s = two_pair_noncommuting()
    reference = full_unitary(s, 1e-10)
    errors = []
    for m in (8, 16, 32, 64):
        u = full_unitary(trotterize(s, m))
        errors.append(linalg.spectral_distance(u, reference))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    _report(
        8,
        "sequential baseline error halves",
        ok,
        f"errors {[f'{e:.2e}' for e in errors]}, ratios {[f'{r:.2f}' for r in ratios]}",
        started,
    )


def test_c09_rechromatize_throttles_chain():
    started = time.time()
    s = chain(4, 1.0, 1.0)
    reference = full_unitary(s, 1e-10)
    ok = True
    errors = []
    for eps in (0.2, 0.1, 0.05):
        out = rechromatize(s, 1, eps)
        if abs(out.total_time - 2.0) > 1e-12:
            ok = False
        for seg in out.segments:
            mid = (seg.t_start + seg.t_end) / 2.0
            if len(color_edges(snapshot(out, mid).pairs).classes) > 1:
                ok = False
        errors.append(linalg.spectral_distance(full_unitary(out, 1e-10), reference))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    if not all(1.7 <= r <= 2.3 for r in ratios):
        ok = False
    _report(
        9,
        "chromatic throttling of the chain",
        ok,
        f"time doubled, indices <= 1, error ratios {[f'{r:.2f}' for r in ratios]}",
        started,
    )


def test_c10_kernel_and_serializer_properties():
    started = time.time()
    rng = np.random.default_rng(1000)
    ok = True

    worst_round = worst_group = worst_recon = 0.0
    for _ in range(1000):
        u = haar_unitary(4, rng)
        h = linalg.unitary_log(u)
        worst_round = max(worst_round, float(np.max(np.abs(linalg.expm_i(h, -1.0) - u))))
        worst_round = max(worst_round, abs(unitary_angle(u) - np.linalg.norm(h, 2)))
    if worst_round >= 1e-9:
        ok = False

    for _ in range(1000):
        h = random_hermitian(4, rng, norm=float(rng.uniform(0.1, 3.0)))
        a, b = rng.uniform(-2, 2, size=2)
        gap = np.max(
            np.abs(linalg.expm_i(h, a) @ linalg.expm_i(h, b) - linalg.expm_i(h, a + b))
        )
        worst_group = max(worst_group, float(gap))
    if worst_group >= 1e-10:
        ok = False

    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        m = random_hermitian(dim, rng)
        w, v = linalg.hermitian_eig(m)
        worst_recon = max(worst_recon, float(np.max(np.abs((v * w) @ v.conj().T - m))))
    if worst_recon >= 1e-11:
        ok = False

    round_trips = 0
    for i in range(500):
        kind = i % 3
        if kind == 0:
            s = random_graph(
                int(rng.integers(2, 6)), 1.0, p=float(rng.uniform(0.2, 0.9)),
                seed=i, segments=int(rng.integers(1, 3)),
            )
        elif kind == 1:
            s = random_graph(4, 2.0, p=0.5, seed=i, coupling=float(rng.uniform(0.2, 2.0)))
        else:
            from chromlc.hamiltonian import random_time_varying

            s = random_time_varying(3, 1.0, p=0.8, seed=i, degree=int(rng.integers(0, 4)))
        if loads_schedule(dumps_schedule(s)) == s:
            round_trips += 1
    for i in range(500):
        g = random_gate_schedule(4, rng, max_steps=2)
        if loads_gates(dumps_gates(g)) == g:
            round_trips += 1
    if round_trips != 1000:
        ok = False

    _report(
        10,
        "kernel and serializer properties",
        ok,
        f"roundtrip {worst_round:.1e}, group law {worst_group:.1e}, "
        f"reconstruction {worst_recon:.1e}, {round_trips}/1000 document roundtrips",
        started,
    )
