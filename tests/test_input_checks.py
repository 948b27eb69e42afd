"""Input checks that the rest of the suite does not reach: each raises its type."""

import numpy as np
import pytest

from chromlc import linalg
from chromlc.compiler import Gate, GateSchedule
from chromlc.errors import BadParams, ParseError
from chromlc.graphs import WeightedGraph
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
from chromlc.serialization import loads_schedule
from chromlc.simulator import MeanFieldObservable

SCHEDULE_WITH_A_NUMBER_SEGMENT = '{"format": "chromlc-schedule", "version": 1, "n_qubits": 2, "segments": [1]}'


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
        (lambda: WeightedGraph(0), BadParams, "at least one vertex"),
        (lambda: Gate((0, 1), np.eye(2), 0.0), BadParams, "gate unitary must be 4x4"),
        (lambda: GateSchedule(1, ()), BadParams, "at least two qubits"),
        (lambda: MeanFieldObservable.pauli(2, "w"), BadParams, "axis must be one of"),
        (lambda: loads_schedule(SCHEDULE_WITH_A_NUMBER_SEGMENT), ParseError, r"segments\[0\]: expected an object"),
    ],
)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_non_square_matrix_is_not_hermitian():
    assert linalg.is_hermitian(np.zeros((2, 3))) is False
