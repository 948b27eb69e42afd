"""Experiment drivers: compilation convergence, variance-bound sweeps, and
sequential-baseline comparisons.

Studies are deterministic for a given seed: per-trial random streams are
derived from the base seed and the trial index, and trials run in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compiler, graphs, linalg, simulator
from .errors import BadParams, TooLarge
from .hamiltonian import (
    HamiltonianSchedule,
    integrated_chromatic_index,
    random_graph,
    scale_schedule,
)

RATIO_RANGE = (1.7, 2.3)
RATIO_ENGAGE = 1e-2   # ratio checks apply once the error is below this
NOISE_FLOOR = 1e-9    # and only while the error stays above this
REFERENCE_STATES = 20  # random initial states of a study past full unitaries
# Three 8-byte seeds are drawn per trial before the first one runs, and a
# trial takes about 7 ms at 8 qubits and 80 ms at 12, so 2^16 trials are
# minutes to an hour and a half of work; uncapped, a typo such as
# ``--trials 1000000000000`` asks for 22 TiB of seeds.
MAX_TRIALS = 2**16

__all__ = [
    "ConvergenceRow",
    "TrotterRow",
    "VarianceTrialRecord",
    "check_convergence",
    "convergence_study",
    "trotter_comparison",
    "variance_bound_experiment",
]


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    error: float
    weighted_depth: float
    depth_gap: float


@dataclass(frozen=True)
class VarianceTrialRecord:
    seed: int
    n_qubits: int
    alpha: float
    variance: float
    bound: float
    slack: float


@dataclass(frozen=True)
class TrotterRow:
    method: str
    parameter: float
    error: float
    weighted_depth: float
    n_steps: int


def convergence_study(s: HamiltonianSchedule, epsilons, tol: float = 1e-10) -> list:
    """Compile at every epsilon and measure the distance to the reference.

    Up to six qubits the metric is the spectral distance between full
    unitaries; beyond that it is the maximum 2-norm state error over
    ``REFERENCE_STATES`` random initial states (seed 0), which
    lower-bounds the spectral distance.  The states travel as one block:
    one integration gives the references (each column renormalized), and
    one pass of each compiled schedule the states compared with them.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise BadParams("need at least one epsilon")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise BadParams("epsilons must be strictly decreasing")
    n = s.n_qubits
    simulator.check_state_size(n)
    samples = 64 if s.is_piecewise_constant else 512
    target = integrated_chromatic_index(s, samples_per_segment=samples).integral

    spectral = n <= simulator.FULL_UNITARY_MAX_QUBITS
    if spectral:
        reference = simulator.full_unitary(s, tol)
    else:
        rng = np.random.default_rng(0)
        initial = rng.normal(size=(2**n, REFERENCE_STATES)) + 1j * rng.normal(size=(2**n, REFERENCE_STATES))
        initial /= np.linalg.norm(initial, axis=0)
        reference = simulator.propagate(s, initial, tol)
        reference /= np.linalg.norm(reference, axis=0)

    rows = []
    for eps in epsilons:
        gates, report = compiler.compile(s, eps)
        if spectral:
            err = linalg.spectral_distance(simulator.full_unitary(gates, tol), reference)
        else:
            err = np.max(np.linalg.norm(simulator.propagate(gates, initial) - reference, axis=0))
        rows.append(
            ConvergenceRow(
                epsilon=eps,
                error=float(err),
                weighted_depth=report.weighted_depth,
                depth_gap=abs(report.weighted_depth - target),
            )
        )
    return rows


def check_convergence(rows):
    """Violation messages for error ratios outside the first-order window.

    A consecutive pair is checked once the earlier error has dropped below
    ``RATIO_ENGAGE``, and skipped once it hits ``NOISE_FLOOR``; its ratio
    must lie in ``RATIO_RANGE``.
    """
    lo, hi = RATIO_RANGE
    problems = []
    for a, b in zip(rows, rows[1:]):
        if a.error > RATIO_ENGAGE or b.error < NOISE_FLOOR:
            continue
        ratio = a.error / b.error
        if not lo <= ratio <= hi:
            problems.append(
                f"error ratio {ratio:.3f} at eps {a.epsilon} -> {b.epsilon} "
                f"outside [{lo}, {hi}]"
            )
    return problems


def _variance_bound(n: int, alpha: float) -> float:
    return n / (1.0 - 2.0 * alpha) ** 4


def variance_bound_experiment(
    n: int,
    alpha: float,
    trials: int,
    seed: int = 0,
    tol: float = 1e-8,
) -> list:
    """Random-schedule sweep of the mean-field variance bound n/(1-2a)^4.

    Each trial draws a random 4-segment piecewise-constant schedule (edge
    probability 0.4), scales it so its integrated chromatic index equals
    ``alpha`` exactly (couplings scale linearly, chromatic indices do not
    change), evolves the basis state |0...0>, and measures the variance of
    a random norm-1 mean-field observable.  Every pair term of the draw has
    norm 1, so W on a segment is the chromatic index of its pair graph and
    the draw's integrated index is the sum of chromatic index times length
    over its segments, with no eigensolve.  Each trial takes three seeds
    from the master generator and uses the first two; drawing the third
    keeps the trials of every ``seed`` as they were when it seeded a random
    initial product state.
    """
    simulator.check_tolerance(tol)
    if not 0.0 <= alpha < 0.5:
        raise BadParams(f"variance bound requires alpha < 1/2, got {alpha}")
    if not 2 <= n <= 12:
        raise BadParams("trials are limited to 2..12 qubits")
    if trials < 1:
        raise BadParams("need at least one trial")
    if trials > MAX_TRIALS:
        raise TooLarge(f"trials are limited to {MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise BadParams(f"seed must be non-negative, got {seed}")
    master = np.random.default_rng(seed)
    trial_seeds = [int(x) for x in master.integers(0, 2**62, size=3 * trials)]
    bound = _variance_bound(n, alpha)

    records = []
    for trial in range(trials):
        draw_seed, obs_seed = trial_seeds[3 * trial : 3 * trial + 2]
        schedule = None
        if alpha > 0.0:
            for attempt in range(64):  # skip degenerate empty draws
                candidate = random_graph(n, 1.0, p=0.4, seed=draw_seed + attempt, segments=4)
                base = sum(len(graphs.color_edges(seg.pairs).classes) * seg.length for seg in candidate.segments)
                if base > 1e-9:
                    schedule = scale_schedule(candidate, alpha / base)
                    break
            if schedule is None:
                raise RuntimeError("random schedule ensemble degenerated repeatedly")
        psi = simulator.basis_state(n, 0)
        if schedule is not None:
            psi = simulator.propagate(schedule, psi, tol)
            psi = psi / np.linalg.norm(psi)
        obs = simulator.MeanFieldObservable.random(n, seed=obs_seed)
        value = simulator.variance(psi, obs)
        records.append(
            VarianceTrialRecord(
                seed=trial,
                n_qubits=n,
                alpha=alpha,
                variance=float(value),
                bound=bound,
                slack=float(bound - value),
            )
        )
    return records


def trotter_comparison(s: HamiltonianSchedule, m_list, epsilons=(), tol: float = 1e-10) -> list:
    """Sequential baseline error/depth against the parallel compilation.

    Every pass of ``trotterize(s, m)`` repeats the first one's steps, so
    its unitary is that of one pass raised to the m-th power
    (``np.linalg.matrix_power``, about 2 log2(m) products), and its
    weighted depth sums one pass's step angles m times over, left to right
    as ``compiler.weighted_depth`` sums the whole schedule's; the step count
    is that of the whole schedule.
    """
    if not m_list:
        raise BadParams("need at least one slice count")
    reference = simulator.full_unitary(s, tol)
    rows = []
    for m in map(int, m_list):
        gates = compiler.trotterize(s, m)
        one_pass = compiler.GateSchedule(gates.n_qubits, gates.steps[: len(gates.steps) // m])
        u = np.linalg.matrix_power(simulator.full_unitary(one_pass, tol), m)
        err = linalg.spectral_distance(u, reference)
        depth = sum([step.max_angle() for step in one_pass.steps] * m, 0.0)
        rows.append(TrotterRow("trotter", float(m), float(err), depth, len(gates.steps)))
    for eps in epsilons:
        gates, report = compiler.compile(s, float(eps))
        err = linalg.spectral_distance(simulator.full_unitary(gates, tol), reference)
        rows.append(TrotterRow("compile", float(eps), float(err), report.weighted_depth, report.n_steps))
    return rows

