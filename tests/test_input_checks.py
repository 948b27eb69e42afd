"""Input checks that the rest of the suite does not reach: each raises its
type or returns False."""

import numpy as np
import pytest

from chromlc import linalg, simulator
from chromlc.compiler import Gate, GateSchedule
from chromlc.errors import BadParams, NotUnitary, ParseError
from chromlc.graphs import EdgeColoring
from chromlc.hamiltonian import (
    HamiltonianSchedule,
    Segment,
    chain,
    integrated_chromatic_index,
    pauli_coeffs,
    pauli_matrix,
    random_graph,
    random_time_varying,
    scale_schedule,
)
from chromlc.serialization import loads_gates, loads_schedule
from chromlc.simulator import MeanFieldObservable

SCHEDULE_WITH_A_NUMBER_SEGMENT = '{"format": "chromlc-schedule", "version": 1, "n_qubits": 2, "segments": [1]}'
SCHEDULE_WITH_COEFFS = (  # one term on the pair (0,1), its "coeffs" to fill in
    '{"format": "chromlc-schedule", "version": 1, "n_qubits": 2, "segments": '
    '[{"t_start": 0.0, "t_end": 1.0, "terms": [{"pair": [0, 1], "coeffs": %s}]}]}'
)
# a gate document, its "n_qubits" and "steps" to fill in
GATES = '{"format": "chromlc-gates", "version": 2, "n_qubits": %s, "steps": %s}'
ONE_GATE = '[{"gates": [{"pair": [0, 1], "generator": %s}]}]'  # a step of one gate, its generator to fill in
PATH = ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: pauli_coeffs(np.eye(2)), BadParams, "expected a 4x4 matrix"),
        (lambda: pauli_matrix(np.zeros(3)), BadParams, "expected 16 coefficients"),
        (lambda: HamiltonianSchedule(1, (Segment(0.0, 1.0),)), BadParams, "at least two qubits"),
        (lambda: integrated_chromatic_index(chain(3), 0), BadParams, "samples_per_segment"),
        (lambda: scale_schedule(chain(3), 0.0), BadParams, "scale factor must be positive"),
        (lambda: random_graph(3, segments=0), BadParams, "segments must be at least 1"),
        (lambda: random_graph(3, p=1.5), BadParams, "edge probability"),
        (lambda: random_time_varying(3, degree=9), BadParams, "degree must lie in"),
        (lambda: GateSchedule(1, ()), BadParams, "at least two qubits"),
        (lambda: MeanFieldObservable.pauli(2, "w"), BadParams, "axis must be one of"),
        (lambda: loads_schedule(SCHEDULE_WITH_A_NUMBER_SEGMENT), ParseError, r"segments\[0\]: expected an object"),
        (lambda: loads_schedule(SCHEDULE_WITH_COEFFS % "[]"), ParseError, r"coeffs: expected an object of Pauli keys"),
        (
            lambda: loads_schedule(SCHEDULE_WITH_COEFFS % '{"XX": 1.0}'),
            ParseError,
            r"segments\[0\]\.terms\[0\]\.coeffs\.XX: expected a list of numbers",
        ),
        (
            lambda: loads_schedule(SCHEDULE_WITH_COEFFS % '{"XX": [0.5, true]}'),
            ParseError,
            r"segments\[0\]\.terms\[0\]\.coeffs\.XX: expected a number, got True",
        ),
        (
            lambda: loads_schedule(SCHEDULE_WITH_A_NUMBER_SEGMENT.replace("[1]", '[{"t_start": 0, "t_end": 1, "terms": [1]}]')),
            ParseError,
            r"segments\[0\]\.terms\[0\]: expected an object",
        ),
        (lambda: loads_gates(GATES % (1, "[]")), ParseError, "gate schedules need at least two qubits"),
        (lambda: loads_gates(GATES % (2.5, "[]")), ParseError, "document.n_qubits: expected an integer"),
        (lambda: loads_gates(GATES % (2, "{}")), ParseError, "document.steps: expected a list"),
        (lambda: loads_gates(GATES % (2, "[1]")), ParseError, r"steps\[0\]: expected an object"),
        (lambda: loads_gates(GATES % (2, '[{"gates": [1]}]')), ParseError, r"steps\[0\]\.gates\[0\]: expected an object"),
        (
            lambda: loads_gates(GATES % (2, ONE_GATE % "[0.5, true]")),
            ParseError,
            r"steps\[0\]\.gates\[0\]\.generator: expected a list of 16 numbers",
        ),
        (
            lambda: loads_gates(GATES % (2, ONE_GATE % ("[1e308, 0, 0, 0, 0, 1e308" + ", 0" * 10 + "]"))),
            ParseError,
            r"steps\[0\]\.gates\[0\]\.generator: expected finite coefficients",
        ),
    ],
)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_non_square_matrix_is_not_hermitian():
    assert linalg.is_hermitian(np.zeros((2, 3))) is False


@pytest.mark.parametrize(
    "check",
    [
        lambda: Gate((0, 1), np.eye(4), 0.0, np.zeros(16)) == 1,
        lambda: Segment(0.0, 1.0) == "x",
        lambda: EdgeColoring((((0, 1),),), True).is_valid_for(PATH),  # misses the edge (1,2)
        lambda: EdgeColoring((((0, 1), (1, 2)),), True).is_valid_for(PATH),  # one class shares vertex 1
    ],
    ids=["gate-eq-int", "segment-eq-str", "coloring-misses-an-edge", "class-shares-a-vertex"],
)
def test_check_returns_false(check):
    assert check() is False


def test_full_unitary_refuses_a_non_unitary_result(monkeypatch):
    monkeypatch.setattr(simulator, "propagate", lambda x, initial, tol: 2 * initial)
    with pytest.raises(NotUnitary, match="failed the unitarity check"):
        simulator.full_unitary(chain(2))
