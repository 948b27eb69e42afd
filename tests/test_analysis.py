import pytest

from chromlc import analysis, linalg, simulator
from chromlc.compiler import trotterize, weighted_depth
from chromlc.errors import BadParams
from chromlc.graphs import WeightedGraph, color_edges
from chromlc.hamiltonian import (
    HamiltonianSchedule,
    Segment,
    chain,
    integrated_chromatic_index,
    random_graph,
    random_time_varying,
)

from helpers import forbid_integrated_index, per_state_convergence_errors, single_pair_schedule


def test_convergence_study_piecewise_constant():
    s = random_graph(4, p=0.7, seed=100, coupling=0.3)
    rows = analysis.convergence_study(s, [0.2, 0.1, 0.05], tol=1e-10)
    assert [r.epsilon for r in rows] == [0.2, 0.1, 0.05]
    errors = [r.error for r in rows]
    assert errors == sorted(errors, reverse=True)
    for row in rows:
        assert row.depth_gap < 1e-9
    assert analysis.check_convergence(rows) == []


def test_convergence_study_past_full_unitaries_matches_per_state_errors():
    # 7 qubits: the study carries its 20 reference states as one block
    s = random_time_varying(7, 0.5, p=0.4, seed=3, degree=2)
    epsilons = [0.25, 0.125]
    rows = analysis.convergence_study(s, epsilons, tol=1e-10)
    assert [r.epsilon for r in rows] == epsilons
    for row, error in zip(rows, per_state_convergence_errors(s, epsilons, 1e-10)):
        assert abs(row.error - error) <= 1e-12 * error


def test_convergence_study_rejects_unsorted():
    s = chain(4, 1.0, 1.0)
    with pytest.raises(BadParams):
        analysis.convergence_study(s, [0.1, 0.2])
    with pytest.raises(BadParams, match="at least one epsilon"):
        analysis.convergence_study(s, [])


def test_check_convergence_flags_bad_ratio():
    rows = [
        analysis.ConvergenceRow(0.2, 8e-3, 1.0, 0.0),
        analysis.ConvergenceRow(0.1, 7e-3, 1.0, 0.0),
    ]
    problems = analysis.check_convergence(rows)
    assert len(problems) == 1 and "ratio" in problems[0]
    # pairs above the engage threshold or below the floor are skipped
    rows = [
        analysis.ConvergenceRow(0.2, 5e-2, 1.0, 0.0),
        analysis.ConvergenceRow(0.1, 4.9e-2, 1.0, 0.0),
        analysis.ConvergenceRow(0.05, 1e-12, 1.0, 0.0),
    ]
    assert analysis.check_convergence(rows) == []


def test_variance_experiment_basics():
    records = analysis.variance_bound_experiment(4, 0.25, trials=6, seed=3)
    assert len(records) == 6
    for r in records:
        assert r.n_qubits == 4
        assert r.alpha == 0.25
        assert abs(r.bound - 4 / 0.5**4) < 1e-12
        assert r.slack >= 0.0
        assert r.variance >= -1e-9


def test_variance_experiment_alpha_zero_baseline():
    records = analysis.variance_bound_experiment(5, 0.0, trials=8, seed=1)
    for r in records:
        assert r.bound == 5.0
        assert r.variance <= 5.0 + 1e-9


def test_variance_experiment_validation():
    with pytest.raises(BadParams, match="alpha < 1/2"):
        analysis.variance_bound_experiment(4, 0.6, trials=1)
    with pytest.raises(BadParams):
        analysis.variance_bound_experiment(14, 0.2, trials=1)
    with pytest.raises(BadParams):
        analysis.variance_bound_experiment(4, 0.2, trials=0)


def test_unit_norm_draws_integrate_to_chromatic_index_times_length():
    # every term of a coupling-1 draw has norm 1, so W on a segment is the
    # chromatic index of its pair graph; the variance sweep rescales by this sum
    empty = 0
    for n in range(2, 13):
        for seed in range(48):  # two-qubit seeds 42 and 45 draw no pair at all
            draw = random_graph(n, 1.0, p=0.4, seed=seed, segments=4)
            unit = sum(
                color_edges(WeightedGraph(n, tuple((k, l, 1.0) for k, l in seg.pairs))).index * seg.length
                for seg in draw.segments
            )
            integral = integrated_chromatic_index(draw).integral
            assert abs(unit - integral) <= 4e-15 * integral
            assert (unit == 0) == (integral == 0)
            empty += integral == 0
    assert empty > 0


def test_variance_experiment_scales_each_draw_to_alpha_without_the_integrated_index(monkeypatch):
    scaled = []
    scale = analysis.scale_schedule

    def recording(s, factor):
        scaled.append(scale(s, factor))
        return scaled[-1]

    with monkeypatch.context() as m:
        forbid_integrated_index(m)
        m.setattr(analysis, "scale_schedule", recording)
        records = analysis.variance_bound_experiment(6, 0.3, trials=6, seed=5)
    assert len(scaled) == len(records) == 6
    for s in scaled:
        assert abs(integrated_chromatic_index(s).integral - 0.3) <= 1e-14


def test_variance_experiment_reports_a_degenerate_ensemble(monkeypatch):
    draws = []

    def empty_draw(n, t_total, p, seed, segments):
        draws.append(seed)
        return HamiltonianSchedule(n, (Segment(0.0, t_total),))

    monkeypatch.setattr(analysis, "random_graph", empty_draw)
    with pytest.raises(RuntimeError, match="^random schedule ensemble degenerated repeatedly$"):
        analysis.variance_bound_experiment(3, 0.25, trials=1)
    assert len(draws) == 64 and draws == list(range(draws[0], draws[0] + 64))


def test_variance_experiment_deterministic():
    a = analysis.variance_bound_experiment(4, 0.3, trials=5, seed=11)
    b = analysis.variance_bound_experiment(4, 0.3, trials=5, seed=11)
    assert a == b
    c = analysis.variance_bound_experiment(4, 0.3, trials=5, seed=12)
    assert a != c


def test_trotter_comparison_rows():
    s = single_pair_schedule({"XX": (0.6,), "ZY": (0.3,)})
    rows = analysis.trotter_comparison(s, [1, 2], epsilons=[1.0])
    methods = [(r.method, r.parameter) for r in rows]
    assert methods == [("trotter", 1.0), ("trotter", 2.0), ("compile", 1.0)]
    # single commuting term: everything is exact
    for r in rows:
        assert r.error < 1e-9


def test_trotter_comparison_matches_applying_every_pass():
    s = random_graph(4, p=0.6, seed=3)
    reference = simulator.full_unitary(s)
    rows = analysis.trotter_comparison(s, [1, 3, 16])
    for row in rows:
        gates = trotterize(s, int(row.parameter))
        error = linalg.spectral_distance(simulator.full_unitary(gates), reference)
        assert abs(row.error - error) <= 1e-13
        assert (row.weighted_depth, row.n_steps) == (weighted_depth(gates), len(gates.steps))
