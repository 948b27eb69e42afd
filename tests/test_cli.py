import argparse
import csv
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromlc import analysis, cli, hamiltonian, linalg
from chromlc.cli import main
from chromlc.errors import ChromlcError
from chromlc.compiler import GateSchedule, Step, embed_discrete
from chromlc.hamiltonian import (
    GENERATORS,
    MAX_GENERATED_TERMS,
    MAX_INDEX_SAMPLES,
    MAX_SAMPLES_PER_SEGMENT,
    PAULI_LABELS,
    chain,
    integrated_chromatic_index,
)
from chromlc.serialization import (
    dumps_schedule,
    load_product_state,
    load_schedule,
    loads_gates,
    loads_schedule,
)
from chromlc.simulator import product_state

from helpers import (
    FUZZ_VALUES,
    forbid_integrated_index,
    gate_from_unitary,
    node_paths,
    random_hermitian,
    record_searches,
    replace_node,
    two_branch_spectral_distance,
    wall_clock_bound,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_index(tmp_path, capsys):
    path = tmp_path / "chain.json"
    code, out, err = run_cli(capsys, "generate", "chain", "--n", "4", "--t", "1.0", "-o", str(path))
    assert code == 0
    schedule = loads_schedule(path.read_text())
    assert schedule.n_qubits == 4
    code, out, _ = run_cli(capsys, "index", str(path), "--samples", "4")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("I = ")
    assert abs(float(first.split()[2]) - 2.0) < 1e-9


def test_index_on_even_complete_graph_past_the_cap_is_exact(tmp_path, capsys):
    # K12 has 66 edges, more than the search takes; its round-robin coloring has 11 classes
    path = tmp_path / "k12.json"
    run_cli(capsys, "generate", "complete_mean_field", "--n", "12", "-o", str(path))
    code, out, _ = run_cli(capsys, "index", str(path))
    assert code == 0
    assert out.startswith("I = 11.0 ")


def test_index_dense_document_colors_each_level_edge_set_once(tmp_path, capsys, monkeypatch):
    # the benchmark's 12-qubit index command: 24 samples (8 reported, 16 for the
    # error estimate), 1056 levels, and 82 searches through the shared dict
    path = tmp_path / "dense.json"
    run_cli(capsys, "generate", "random_time_varying", "--n", "12", "--p", "0.7", "--seed", "3", "-o", str(path))
    decompose = hamiltonian.level_decompose
    levels = []

    def counting(pairs, weights, known):
        decomp = decompose(pairs, weights, known)
        levels.append(len(decomp.levels))
        return decomp

    monkeypatch.setattr(hamiltonian, "level_decompose", counting)
    searched = record_searches(monkeypatch)
    code, _, _ = run_cli(capsys, "index", str(path), "--samples", "8")
    assert code == 0
    assert (len(levels), sum(levels), len(searched)) == (24, 1056, 82)
    assert len(set(searched)) == 82


def test_index_on_odd_complete_graph_is_bounded(tmp_path, capsys):
    # K11 is overfull, so its Misra-Gries coloring has the proven 11 classes and no search runs
    path = tmp_path / "k11.json"
    run_cli(capsys, "generate", "complete_mean_field", "--n", "11", "-o", str(path))
    with wall_clock_bound(2.0):
        code, out, _ = run_cli(capsys, "index", str(path))
    assert code == 0
    assert out.startswith("I = 11.0 ")


@pytest.mark.filterwarnings("ignore:.*global phase.*")
def test_index_on_embedded_two_step_schedule(tmp_path, capsys):
    # two steps with angles 0.3 and 0.7 embed to integrated index 1.0;
    # generic gates carry a phase component, hence the filtered warning
    rng = np.random.default_rng(0)
    gates = []
    for norm in (0.3, 0.7):
        h = random_hermitian(4, rng, norm=norm)
        gates.append(gate_from_unitary((0, 1), linalg.expm_i(h, 1.0)))
    schedule = embed_discrete(GateSchedule(2, (Step((gates[0],)), Step((gates[1],)))))
    path = tmp_path / "embedded.json"
    path.write_text(dumps_schedule(schedule))
    code, out, _ = run_cli(capsys, "index", str(path))
    assert code == 0
    value = float(out.splitlines()[0].split()[2])
    assert abs(value - 1.0) < 1e-9


def test_index_json_format(tmp_path, capsys):
    path = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "index", str(path), "--format", "json", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["I"] - 2.0) < 1e-9
    assert len(doc["samples"]) == 2


def test_compile_subcommand(tmp_path, capsys):
    spath = tmp_path / "chain.json"
    gpath = tmp_path / "gates.json"
    rpath = tmp_path / "report.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    code, _, err = run_cli(
        capsys, "compile", str(spath), "--epsilon", "0.25", "-o", str(gpath), "--report", str(rpath)
    )
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = loads_gates(gpath.read_text())
    assert gates.n_qubits == 4
    report = json.loads(rpath.read_text())
    assert abs(report["weighted_depth"] - 2.0) < 1e-9
    assert report["n_steps"] == len(gates.steps)


@pytest.mark.parametrize(
    "command, options",
    [
        ("index", []),
        ("index", ["--format", "json"]),
        ("compile", ["--epsilon", "0.5", "--report", "report.json", "-o", "gates.json"]),
    ],
)
def test_index_beyond_the_float_range_exits_2(tmp_path, capsys, monkeypatch, command, options):
    # the sum of two pair norms of 1e308 is inf, which no JSON document can carry
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "random_graph", "--n", "3", "--coupling", "1e308", "-o", "big.json")
    code, out, err = run_cli(capsys, command, "big.json", *options)
    assert (code, out) == (2, "")
    assert err == "error: integrated chromatic index overflows the float range: inf\n"
    assert sorted(os.listdir(tmp_path)) == ["big.json"]  # no gate file, no report


def test_compile_computes_the_index_only_for_the_report(tmp_path, capsys, monkeypatch):
    spath = tmp_path / "tv.json"
    gpath = tmp_path / "gates.json"
    rpath = tmp_path / "report.json"
    run_cli(capsys, "generate", "random_time_varying", "--n", "4", "--seed", "2", "-o", str(spath))
    code, _, err = run_cli(
        capsys, "compile", str(spath), "--epsilon", "0.25", "-o", str(gpath), "--report", str(rpath)
    )
    assert code == 0
    report = json.loads(rpath.read_text())
    schedule = load_schedule(spath)
    assert report["source_integrated_index"] == integrated_chromatic_index(schedule).integral
    assert list(report) == [
        "epsilon", "n_steps", "weighted_depth", "source_integrated_index", "intervals",
    ]
    depth = report["weighted_depth"]
    assert err == f"compiled {report['n_steps']} steps, weighted depth {depth!r}\n"
    gate_text = gpath.read_text()
    forbid_integrated_index(monkeypatch)
    code, _, again = run_cli(capsys, "compile", str(spath), "--epsilon", "0.25", "-o", str(gpath))
    assert code == 0
    assert again == err
    assert gpath.read_text() == gate_text


@pytest.mark.parametrize("missing", ["report", "output"])
def test_compile_failed_write_leaves_no_file(tmp_path, capsys, missing):
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    paths = {"output": tmp_path / "g.json", "report": tmp_path / "r.json"}
    paths[missing] = tmp_path / "missing_dir" / paths[missing].name
    code, out, err = run_cli(
        capsys, "compile", str(spath), "--epsilon", "0.5", "-o", str(paths["output"]), "--report", str(paths["report"])
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file or directory") and "missing_dir" in err
    assert os.listdir(tmp_path) == ["pairs.json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("index", "{doc}", "--samples", "1000000000000"), "samples per segment are limited to"),
        (("compile", "{doc}", "--epsilon", "1e-13"), "subintervals"),
        (("compile", "{doc}", "--epsilon", "5e-324"), "subintervals"),
    ],
)
def test_sample_cap_exits_2(tmp_path, capsys, argv, message):
    # uncapped, these ask for terabytes, and 1 / 5e-324 overflows to inf
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", str(spath))
    code, out, err = run_cli(capsys, *(a.format(doc=spath) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and message in err and str(MAX_SAMPLES_PER_SEGMENT) in err
    assert out == ""


def test_index_samples_are_capped_over_the_whole_schedule(tmp_path, capsys):
    # the cap was per segment only, so the samples grew with the segment
    # count: a 100 kB document of about 1100 such segments asked for 22 GB
    segments = [
        {"t_start": float(j), "t_end": float(j + 1), "terms": [{"pair": [0, 1], "coeffs": {"ZZ": [1.0]}}]}
        for j in range(65)
    ]
    spath = tmp_path / "many.json"
    spath.write_text(json.dumps({"format": "chromlc-schedule", "version": 1, "n_qubits": 2, "segments": segments}))
    with wall_clock_bound(2.0):
        code, out, err = run_cli(capsys, "index", str(spath), "--samples", str(MAX_SAMPLES_PER_SEGMENT))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_INDEX_SAMPLES) in err


@pytest.mark.parametrize("report", ["same.json", "./same.json"])
def test_compile_refuses_one_file_for_gates_and_report(tmp_path, capsys, monkeypatch, report):
    # the report used to overwrite the gate file, and the command exited 0
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", "chain.json")
    code, out, err = run_cli(capsys, "compile", "chain.json", "--epsilon", "0.5", "-o", "same.json", "--report", report)
    assert (code, out) == (2, "")
    assert err == f"error: -o and --report name the same file: {report}\n"
    assert sorted(os.listdir(tmp_path)) == ["chain.json"]


def test_compile_refuses_a_hard_link_of_the_gate_file_as_report(tmp_path, capsys, monkeypatch):
    # two links to one file passed the path comparison, and the report replaced the gates
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", "chain.json")
    (tmp_path / "g.json").write_text("old gates\n")
    os.link(tmp_path / "g.json", tmp_path / "link.json")
    code, out, err = run_cli(capsys, "compile", "chain.json", "--epsilon", "0.5", "-o", "g.json", "--report", "link.json")
    assert (code, out) == (2, "")
    assert err == "error: -o and --report name the same file: link.json\n"
    assert (tmp_path / "g.json").read_text() == "old gates\n"


def test_compile_epsilon_too_large_exits_2(tmp_path, capsys):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "--t", "0.5", "-o", str(spath))
    code, _, err = run_cli(capsys, "compile", str(spath), "--epsilon", "0.75", "-o", "/dev/null")
    assert code == 2
    assert "epsilon" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "index", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, options",
    [
        (["index"], []),
        (["compile"], ["--epsilon", "0.1"]),
        (["simulate"], []),
        (["verify", "theorem1"], ["--epsilons", "0.2,0.1"]),
        (["trotter"], ["--m-list", "1,2"]),
    ],
)
def test_document_that_is_not_utf8_exits_2(tmp_path, capsys, command, options):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"a":1}')
    code, _, err = run_cli(capsys, *command, str(bad), *options)
    assert code == 2
    assert err.startswith("error:") and "not UTF-8" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "index", "/nonexistent/path.json")
    assert code == 2


def test_simulate_gates(tmp_path, capsys):
    spath = tmp_path / "chain.json"
    gpath = tmp_path / "gates.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    run_cli(capsys, "compile", str(spath), "--epsilon", "0.25", "-o", str(gpath))
    code, out, _ = run_cli(capsys, "simulate", str(gpath), "--observable", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_qubits"] == 4
    assert abs(doc["norm"] - 1.0) < 1e-9
    assert abs(doc["expectation"] - 4.0) < 1e-9


def test_simulate_decodes_its_document_once(tmp_path, capsys, monkeypatch):
    # load_document reads the format field from the decoded document and
    # builds the schedule or gates from that same document
    spath = tmp_path / "chain.json"
    gpath = tmp_path / "gates.json"
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", str(spath))
    run_cli(capsys, "compile", str(spath), "--epsilon", "0.5", "-o", str(gpath))
    decoded = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        decoded.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    for path in (spath, gpath):
        decoded.clear()
        code, _, _ = run_cli(capsys, "simulate", str(path))
        assert code == 0
        assert decoded == [path.stat().st_size]


def test_simulate_schedule_and_product_state(tmp_path, capsys):
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    state = tmp_path / "plus.json"
    amp = 1 / np.sqrt(2)
    state.write_text(
        json.dumps(
            {
                "format": "chromlc-product",
                "version": 1,
                "qubits": [[[amp, 0.0], [amp, 0.0]] for _ in range(4)],
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "simulate", str(spath), "--state", str(state), "--observable", "x", "--tol", "1e-8"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["norm"] - 1.0) < 1e-9
    code, out, _ = run_cli(capsys, "simulate", str(spath), "--state", "basis:3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n_qubits,4"


def test_simulate_bad_state_exits_2(tmp_path, capsys):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    missing = tmp_path / "missing_state.json"
    code, _, err = run_cli(capsys, "simulate", str(spath), "--state", str(missing))
    assert code == 2


def test_simulate_product_state_that_is_not_utf8_names_the_path_once(tmp_path, capsys):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "2", "-o", str(spath))
    state = tmp_path / "state.json"
    state.write_bytes(b'\xff\xfe{"a":1}')
    code, out, err = run_cli(capsys, "simulate", str(spath), "--state", str(state))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {state}: not UTF-8 text: ")
    assert err.count(str(state)) == 1


def _product_state_text(qubits):
    return json.dumps({"format": "chromlc-product", "version": 1, "qubits": qubits})


@pytest.mark.parametrize(
    "state_text",
    [
        "{not json",
        "[1, 2]",
        _product_state_text([[[1, 0], [0, 0]]] * 3),
        _product_state_text([[["a", 0], [0, 0]]] * 4),
        _product_state_text([[[1], [0, 0]]] * 4),
        _product_state_text([[1, 0]] * 4),
        _product_state_text([[[1, 0], [0, 0], [0, 0]]] * 4),
        _product_state_text([[[True, 0], [0, 0]]] * 4),
        _product_state_text([[[0, 0], [0, 0]]] * 4),
        _product_state_text([[[1e400, 0], [0, 0]]] * 4),
        _product_state_text([[[10**400, 0], [0, 0]]] * 4),
    ],
)
def test_simulate_malformed_product_state_exits_2(tmp_path, capsys, state_text):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    state = tmp_path / "state.json"
    state.write_text(state_text)
    code, _, err = run_cli(capsys, "simulate", str(spath), "--state", str(state))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", [[[1e308, 1e308], [1e308, 0]], [[1e-320, 0], [0, 0]]])
def test_simulate_unnormalisable_product_state_exits_2(tmp_path, capsys, entry):
    # the squared norm overflows to inf or underflows to 0
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "2", "-o", str(spath))
    state = tmp_path / "state.json"
    state.write_text(_product_state_text([[[1, 0], [0, 0]], entry]))
    code, _, err = run_cli(capsys, "simulate", str(spath), "--state", str(state))
    assert code == 2
    assert err == f"error: {state}: qubits[1]: amplitudes too large or too small to normalise to norm 1\n"


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_of_the_format(tmp_path, capsys, version):
    # schedule and product documents are version 1, gate documents version 3
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", str(spath))
    gpath = tmp_path / "gates.json"
    run_cli(capsys, "compile", str(spath), "--epsilon", "0.5", "-o", str(gpath))
    for path, command, expected in ((spath, "index", 1), (gpath, "simulate", 3)):
        doc = json.loads(path.read_text())
        doc["version"] = version
        edited = tmp_path / f"edited-{path.name}"
        edited.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(edited))
        assert (code, out) == (2, "")
        assert err == f"error: version: expected {expected}, got {version!r}\n"
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format": "chromlc-product", "version": version, "qubits": [[[1, 0], [0, 0]]] * 3}))
    code, _, err = run_cli(capsys, "simulate", str(spath), "--state", str(state))
    assert code == 2
    assert err == f"error: {state}: version: expected 1, got {version!r}\n"


_PRODUCT_BASE = {"format": "chromlc-product", "version": 1, "qubits": [[[0.6, 0.0], [0.0, 0.8]], [[1, 0], [0, 0]]]}


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(node_paths(_PRODUCT_BASE))), value=FUZZ_VALUES)
@example(path=("qubits", 0, 1, 1), value=1e308)
@example(path=("qubits", 1, 0, 0), value=1e-320)
@example(path=("version",), value=True)
def test_fuzzed_product_state_loads_or_raises_chromlc_error(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state.json"
        state.write_text(json.dumps(replace_node(_PRODUCT_BASE, path, value)))
        try:
            psi = product_state(load_product_state(str(state), 2))
        except ChromlcError:
            return
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "qubits",
    [
        _PRODUCT_BASE["qubits"],
        [[[-0.3, 1.7], [2.5, -0.1]], [[0, -1], [1e-3, 0]], [[1e100, 0], [0, -1e100]]],
        np.random.default_rng(5).normal(size=(6, 2, 2)).tolist(),
    ],
)
def test_product_state_is_the_product_of_the_normalized_vectors(tmp_path, qubits):
    # an eigh round trip of each |v><v| returned the vectors up to a phase
    state = tmp_path / "state.json"
    state.write_text(_product_state_text(qubits))
    vectors = [np.array([complex(re, im) for re, im in q]) for q in qubits]
    expected = reduce(np.kron, [v / np.linalg.norm(v) for v in vectors])
    loaded = load_product_state(str(state), len(qubits))
    assert loaded.shape == (len(qubits), 2)
    assert np.array_equal(product_state(loaded), expected)


def test_simulate_keeps_the_given_phase(tmp_path, capsys):
    # the eigh round trip printed re = -0.6 and im = -0.8000000000000002
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "2", "--t", "1e-300", "-o", str(spath))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_PRODUCT_BASE))
    code, out, _ = run_cli(capsys, "simulate", str(spath), "--state", str(state))
    assert code == 0
    rows = {row["bitstring"]: row for row in json.loads(out)["amplitudes"]}
    assert (rows["00"]["re"], rows["00"]["im"]) == (0.6, 0.0)
    assert (rows["10"]["re"], rows["10"]["im"], rows["10"]["probability"]) == (0.0, 0.8, 0.8 * 0.8)


@pytest.mark.parametrize("spec", ["basis:x", "basis:", "basis:1.5", "basis:99"])
def test_simulate_bad_basis_state_exits_2(tmp_path, capsys, spec):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    code, _, err = run_cli(capsys, "simulate", str(spath), "--state", spec)
    assert code == 2
    assert err.startswith("error:")


def _one_gate_document(gate, terms=([0.0] * 16,)):
    doc = {"format": "chromlc-gates", "version": 3, "n_qubits": 2, "terms": list(terms), "steps": [{"gates": [gate]}]}
    return json.dumps(doc)


@pytest.mark.parametrize("pair", [["a", 1], [0, [1]], [0.5, 1], [0, 1.9], [False, 1], [1, 0], [0, 2]])
def test_simulate_bad_gate_pair_exits_2(tmp_path, capsys, pair):
    gpath = tmp_path / "gates.json"
    gpath.write_text(_one_gate_document({"pair": pair, "term": 0, "duration": 1.0}))
    code, _, err = run_cli(capsys, "simulate", str(gpath))
    assert code == 2
    assert err.startswith("error: steps[0].gates[0].pair: ")


_XX_YY = [1e308 if label in ("XX", "YY") else 0.0 for label in PAULI_LABELS]  # matrix entries of 2e308


@pytest.mark.parametrize(
    "terms, field",
    [
        (None, "document.terms"),
        ({"XX": 1.0}, "document.terms"),
        ([[0.0] * 15], "terms[0]"),
        ([[True] + [0.0] * 15], "terms[0]"),
        ([["x"] + [0.0] * 15], "terms[0]"),
        ([[None] + [0.0] * 15], "terms[0]"),
        ([[10**400] + [0.0] * 15], "terms[0]"),
        ([[float("nan")] + [0.0] * 15], "terms[0]"),
        ([], "steps[0].gates[0].term"),
        # the gate runs the row for 1.0: its generator, checked on the walk over the steps, is named first
        ([_XX_YY], "steps[0].gates[0].duration"),
        ([[0.0] * 16, _XX_YY], "terms[1]"),
    ],
    ids=[
        "missing",
        "object",
        "short",
        "true",
        "string",
        "null",
        "huge-integer",
        "nan",
        "empty",
        "overflow",
        "unused-overflow",
    ],
)
def test_simulate_bad_term_exits_2(tmp_path, capsys, terms, field):
    doc = json.loads(_one_gate_document({"pair": [0, 1], "term": 0, "duration": 1.0}))
    if terms is None:
        del doc["terms"]
    else:
        doc["terms"] = terms
    gpath = tmp_path / "gates.json"
    gpath.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(gpath))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "duration",
    [None, 10**400, float("nan"), float("inf"), -1, True, "x"],
    ids=["missing", "huge-integer", "nan", "infinity", "negative", "true", "string"],
)
def test_simulate_bad_duration_exits_2(tmp_path, capsys, duration):
    gate = {"pair": [0, 1], "term": 0} if duration is None else {"pair": [0, 1], "term": 0, "duration": duration}
    gpath = tmp_path / "gates.json"
    gpath.write_text(_one_gate_document(gate))
    code, out, err = run_cli(capsys, "simulate", str(gpath))
    assert (code, out) == (2, "")
    assert err.startswith("error: steps[0].gates[0].duration: ") and err.count("\n") == 1


_IDENTITY = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]


@pytest.mark.parametrize(
    "version, gate",
    [
        (1, {"pair": [0, 1], "unitary": _IDENTITY, "angle": 0.0}),
        (2, {"pair": [0, 1], "generator": [0.0] * 16}),
    ],
    ids=["unitary-and-angle", "generator"],
)
def test_simulate_refuses_an_earlier_gate_document(tmp_path, capsys, version, gate):
    # one reader: compile the schedule again for a version-3 file
    gpath = tmp_path / "gates.json"
    doc = {"format": "chromlc-gates", "version": version, "n_qubits": 2, "steps": [{"gates": [gate]}]}
    gpath.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(gpath))
    assert (code, out, err) == (2, "", f"error: version: expected 3, got {version}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "theorem1", "{doc}", "--epsilons", "0.2,abc"), "expected comma-separated numbers"),
        (("trotter", "{doc}", "--m-list", "2,x"), "expected comma-separated integers"),
        (("verify", "theorem1", "{doc}", "--epsilons", ""), "need at least one epsilon"),
        (("trotter", "{doc}", "--m-list", ""), "need at least one slice count"),
    ],
)
def test_bad_list_argument_exits_2(tmp_path, capsys, argv, message):
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "-o", str(spath))
    code, out, err = run_cli(capsys, *(a.format(doc=spath) for a in argv))
    assert code == 2
    assert "error:" in err and message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "{doc}"),
        ("simulate", "{doc}", "--state", "{state}"),
        ("verify", "theorem1", "{doc}", "--epsilons", "0.5"),
    ],
)
def test_state_qubit_cap_exits_2(tmp_path, capsys, argv):
    # 2^40 amplitudes would need 16 TiB: the cap must refuse before allocating
    spath = tmp_path / "chain.json"
    run_cli(capsys, "generate", "chain", "--n", "40", "-o", str(spath))
    state = tmp_path / "state.json"
    state.write_text(_product_state_text([[[1, 0], [0, 0]]] * 40))
    code, _, err = run_cli(capsys, *(a.format(doc=spath, state=state) for a in argv))
    assert code == 2
    assert err.startswith("error: state vectors are limited to 18 qubits")


def _one_term_document(path, n_qubits):
    doc = {
        "format": "chromlc-schedule", "version": 1, "n_qubits": n_qubits,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "terms": [{"pair": [0, 1], "coeffs": {"ZZ": [1.0]}}]}],
    }
    path.write_text(json.dumps(doc))


def test_basis_state_on_a_huge_register_exits_2(tmp_path, capsys):
    # 2**n was computed before the size cap was checked: 7 s at 10^9 qubits,
    # and past 10^11 a 20 s timeout stopped it
    spath = tmp_path / "huge.json"
    _one_term_document(spath, 10**9)
    with wall_clock_bound(2.0):
        code, out, err = run_cli(capsys, "simulate", str(spath), "--state", "basis:0")
    assert (code, out) == (2, "")
    assert err == "error: state vectors are limited to 18 qubits, got 1000000000\n"


@pytest.mark.parametrize("command", ["index", "compile"])
def test_index_and_compile_on_a_huge_register(tmp_path, capsys, command):
    # per-vertex tables sized by the register asked for 800 GB at 10^11
    # qubits; at 2^61 such a list fails at once with a MemoryError
    spath, gpath = tmp_path / "huge.json", tmp_path / "gates.json"
    _one_term_document(spath, 2**61)
    argv = ["index", str(spath)] if command == "index" else ["compile", str(spath), "--epsilon", "0.5", "-o", str(gpath)]
    with wall_clock_bound(5.0):
        code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if command == "index":
        assert out.startswith("I = 1.0 (error estimate 0.0)\n")
    else:
        assert err == "compiled 2 steps, weighted depth 1.0\n"
        assert loads_gates(gpath.read_text()).n_qubits == 2**61


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "100"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "{doc}"),
        ("verify", "variance", "--n", "3", "--alpha", "0.2", "--trials", "1"),
        ("verify", "variance", "--n", "3", "--alpha", "0", "--trials", "1"),
        ("verify", "theorem1", "{doc}", "--epsilons", "0.5"),
        ("trotter", "{doc}", "--m-list", "2"),
        ("simulate", "{gates}"),
    ],
)
def test_bad_tolerance_exits_2(tmp_path, capsys, argv, tol):
    # a NaN tolerance used to halve the RK4 step toward 2^24 times the
    # first count; the timer turns such a run into a failure.  From 1 on, a
    # drift check as loose as the tolerance would pass a column of norm 2,
    # and at 100 the Taylor order falls to 0, leaving the state unevolved.
    # A gate document takes the same check, though gates ignore the tolerance
    spath, gpath = tmp_path / "chain.json", tmp_path / "chain.gates"
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", str(spath))
    run_cli(capsys, "compile", str(spath), "--epsilon", "0.5", "-o", str(gpath))
    with wall_clock_bound(20.0):
        code, out, err = run_cli(capsys, *(a.format(doc=spath, gates=gpath) for a in argv), "--tol", tol)
    assert code == 2
    assert err.startswith("error: integrator tolerance must be a finite number >= 1e-12")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "{doc}", "--state", "basis:1"),
        ("verify", "variance", "--n", "6", "--alpha", "0.3", "--trials", "5"),
        ("verify", "theorem1", "{doc}", "--epsilons", "0.2,0.1"),
        ("trotter", "{doc}", "--m-list", "2"),
    ],
)
def test_loose_tolerance_stays_within_it(tmp_path, capsys, argv):
    # the integrator promises an error of at most tol, so the norm may
    # drift that far: a fixed 1e-6 drift limit would end in NormDrift
    spath = tmp_path / "g3.json"
    run_cli(capsys, "generate", "random_graph", "--n", "3", "--p", "1", "--seed", "2", "-o", str(spath))
    argv = [a.format(doc=spath) for a in argv]
    results = []
    for tol in ("0.1", "1e-10"):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 0, err
        results.append([float(x) for x in re.findall(r"-?\d+\.\d*(?:e[-+]\d+)?", out)])
    loose, tight = results
    assert len(loose) == len(tight) > 0
    assert np.allclose(loose, tight, rtol=0, atol=0.1)


@pytest.mark.parametrize(
    "generator, message",
    [
        (["chain"], "error: the schedule needs more than 65536 Taylor substeps"),
        # some 1e4 substeps a segment, 1e7 in all
        (["random_graph", "--p", "1", "--segments", "1000", "--coupling", "1e7"], "error: the schedule needs more"),
        (["random_time_varying", "--p", "1"], "error: the schedule needs more than 65536 Taylor substeps"),
    ],
)
def test_simulate_refuses_unbounded_integration(tmp_path, capsys, generator, message):
    # the coupling-1e9 documents used to run for over 10 s, printing NaN
    # warnings, on their way to 2^24 step halvings
    spath = tmp_path / "strong.json"
    argv = ["generate", *generator, "--n", "2", "-o", str(spath)]
    run_cli(capsys, *(argv if "--coupling" in generator else argv + ["--coupling", "1e9"]))
    with wall_clock_bound(3.0):
        code, out, err = run_cli(capsys, "simulate", str(spath))
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1
    assert out == ""


def test_generate_defaults_are_the_generators(capsys):
    for kind, generator in GENERATORS.items():
        code, out, _ = run_cli(capsys, "generate", kind, "--n", "4")
        assert code == 0
        assert out == dumps_schedule(generator(4))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["chain", "--n", "4", "--p", "0.3", "--degree", "4", "--seed", "3"], "'p'"),
        (["random_time_varying", "--n", "3", "--segments", "4", "--seed", "2"], "'segments'"),
    ],
)
def test_generate_refuses_a_flag_its_kind_does_not_take(tmp_path, capsys, argv, flag):
    # both used to exit 0, dropping the flags the kind does not take
    path = tmp_path / "s.json"
    code, out, err = run_cli(capsys, "generate", *argv, "-o", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("complete_mean_field", "--n", "2000"),
        ("random_graph", "--n", "5", "--segments", "1000000"),
        ("random_time_varying", "--n", "1000", "--degree", "8"),
        ("chain", "--n", "1000000000"),
    ],
)
def test_generate_size_is_bounded(capsys, argv):
    # these used to run past a 30 s timeout; the timer turns such a run into a failure
    with wall_clock_bound(20.0):
        code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2
    assert err.startswith("error: the schedule may hold ") and str(MAX_GENERATED_TERMS) in err
    assert out == ""


def test_python_dash_m_runs_the_cli(tmp_path, capsys, monkeypatch):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "chromlc", "--help"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: chromlc")
    # the same entry point in this process, so that a line tracer sees it run
    monkeypatch.setattr(sys, "argv", ["chromlc", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("chromlc", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chromlc")


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: chromlc [-h] {generate,index,compile,simulate,verify,trotter} ...\n")
    for name in ("generate", "index", "compile", "simulate", "verify", "trotter"):
        assert f"\n    {name} " in out


def _full_parser_output(capsys, argv):
    """Exit code and output of the parser with every subcommand."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return int(exc.value.code or 0), captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--help"], ["generate", "nope", "--n", "2"], ["generate", "chain"],
        ["index", "-h"], ["index"], ["index", "doc.json", "--samples", "x"],
        ["compile", "--help"], ["compile", "doc.json"], ["compile", "doc.json", "--epsilon", "0.1", "--bogus"],
        ["simulate", "-h"], ["simulate", "doc.json", "--format", "xml"],
        ["verify", "--help"], ["verify"], ["verify", "nope"], ["verify", "theorem1", "-h"],
        ["verify", "variance", "--help"], ["verify", "variance", "--n", "x", "--alpha", "0.1"],
        ["trotter", "-h"], ["trotter", "doc.json", "--m-list", "a,b"], ["trotter", "doc.json", "--m-list", "2", "extra"],
    ],
)
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    expected = _full_parser_output(capsys, argv)
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run_cli(capsys, *argv) == expected
    assert built == [argv[0]] + (["theorem1", "variance"] if argv[0] == "verify" else [])


def test_json_params_name_every_input(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "variance", "--n", "3", "--alpha", "0.2", "--trials", "1",
        "--tol", "1e-9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"] == {"n": 3, "alpha": 0.2, "trials": 1, "seed": 0, "tol": 1e-9}
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    code, out, _ = run_cli(
        capsys, "trotter", str(spath), "--m-list", "1,2", "--epsilons", "1.0",
        "--tol", "1e-9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"] == {
        "schedule": str(spath), "m_list": [1, 2], "epsilons": [1.0], "tol": 1e-9,
    }
    code, out, _ = run_cli(
        capsys, "verify", "theorem1", str(spath), "--epsilons", "1.0,0.5", "--tol", "1e-9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"] == {"schedule": str(spath), "epsilons": [1.0, 0.5], "tol": 1e-9}


def test_verify_variance(capsys):
    code, out, err = run_cli(
        capsys, "verify", "variance", "--n", "4", "--alpha", "0.25", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,n_qubits,alpha,variance,bound,slack"
    assert len(lines) == 4
    assert "satisfy the bound" in err


@pytest.mark.parametrize(
    "study, row, text, message",
    [
        (
            "convergence_study",
            analysis.ConvergenceRow(epsilon=0.5, error=1e-3, weighted_depth=1.5, depth_gap=0.25),
            "epsilon,error,weighted_depth,depth_gap\n0.5,0.001,1.5,0.25\n",
            "FAIL: weighted depth misses the integrated index by 2.500e-01 at eps 0.5 on a piecewise-constant schedule",
        ),
        (
            "variance_bound_experiment",
            analysis.VarianceTrialRecord(seed=7, n_qubits=3, alpha=0.2, variance=40.0, bound=38.5, slack=-1.5),
            "seed,n_qubits,alpha,variance,bound,slack\n7,3,0.2,40.0,38.5,-1.5\n",
            "FAIL: trial 7 variance 40.0 exceeds bound 38.5",
        ),
    ],
)
def test_verify_reports_a_failing_row(tmp_path, capsys, monkeypatch, study, row, text, message):
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    monkeypatch.setattr(analysis, study, lambda *args, **kwargs: [row])
    if study == "convergence_study":
        argv = ["theorem1", str(spath), "--epsilons", "0.5"]
    else:
        argv = ["variance", "--n", "3", "--alpha", "0.2", "--trials", "1"]
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == text
    assert err == message + "\n"


def test_csv_emission(capsys):
    code, out, _ = run_cli(capsys, "verify", "variance", "--n", "3", "--alpha", "0.1", "--trials", "2", "--seed", "0")
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == ["seed", "n_qubits", "alpha", "variance", "bound", "slack"]
    assert len(parsed) == 3
    assert float(parsed[1][2]) == 0.1


def test_csv_excludes_wall_time(tmp_path, capsys, monkeypatch):
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    row = analysis.ConvergenceRow(0.2, 1e-3, 1.0, 0.0)
    monkeypatch.setattr(analysis, "convergence_study", lambda *args, **kwargs: [row])
    code, out, _ = run_cli(capsys, "verify", "theorem1", str(spath), "--epsilons", "0.2")
    assert code == 0
    assert "wall_time" not in out
    assert out == "epsilon,error,weighted_depth,depth_gap\n0.2,0.001,1.0,0.0\n"


def test_summary_json_shape(capsys):
    argv = ["--n", "3", "--alpha", "0.1", "--trials", "2", "--seed", "0", "--format", "json"]
    code, out, _ = run_cli(capsys, "verify", "variance", *argv)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["study", "params", "rows"]
    assert doc["study"] == "variance"
    assert doc["params"] == {"n": 3, "alpha": 0.1, "trials": 2, "seed": 0, "tol": 1e-8}
    assert len(doc["rows"]) == 2
    assert set(doc["rows"][0]) == {"seed", "n_qubits", "alpha", "variance", "bound", "slack"}


def test_verify_variance_alpha_cap(capsys):
    code, _, err = run_cli(
        capsys, "verify", "variance", "--n", "4", "--alpha", "0.6", "--trials", "2"
    )
    assert code == 2
    assert "alpha < 1/2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trotter", "{doc}", "--m-list", "1000000000000"), "slice counts are limited to 65536"),
        (("verify", "variance", "--n", "2", "--alpha", "0.1", "--trials", "1000000000000"), "trials are limited to 65536"),
    ],
)
def test_count_caps_exit_2(tmp_path, capsys, argv, message):
    # uncapped, the trotter baseline built 10^12 passes of steps until a
    # timeout stopped it, and the sweep asked for 22 TiB of trial seeds
    spath = tmp_path / "c3.json"
    run_cli(capsys, "generate", "random_graph", "--n", "3", "--p", "1", "-o", str(spath))
    with wall_clock_bound(5.0):
        code, out, err = run_cli(capsys, *(a.format(doc=spath) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {message}, got 1000000000000\n"


def test_verify_theorem1(tmp_path, capsys):
    spath = tmp_path / "rand.json"
    run_cli(
        capsys,
        "generate", "random_graph", "--n", "4", "--p", "0.7", "--seed", "100",
        "--coupling", "0.3", "-o", str(spath),
    )
    code, out, err = run_cli(
        capsys, "verify", "theorem1", str(spath), "--epsilons", "0.2,0.1,0.05"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,error,weighted_depth,depth_gap"
    assert "passed" in err


def test_trotter_subcommand(tmp_path, capsys):
    spath = tmp_path / "pairs.json"
    run_cli(capsys, "generate", "disjoint_pairs", "--n", "4", "-o", str(spath))
    code, out, _ = run_cli(
        capsys, "trotter", str(spath), "--m-list", "1,2", "--epsilons", "1.0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,parameter,error,weighted_depth,n_steps"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "generator",
    [
        ["random_graph", "--n", "5", "--seed", "4"],
        ["complete_mean_field", "--n", "4"],
        ["disjoint_pairs", "--n", "4"],
        ["chain", "--n", "4", "--coupling", "0"],
    ],
    ids=["random", "all-zz", "disjoint-pairs", "zero-coupling"],
)
def test_study_errors_match_the_two_branch_norm(tmp_path, capsys, monkeypatch, generator):
    # the Hermitian branch of the deleted operator norm never ran on a study's
    # difference of unitaries, so theorem1 and trotter print what they printed with it
    spath = tmp_path / "s.json"
    run_cli(capsys, "generate", *generator, "-o", str(spath))
    studies = [
        ["verify", "theorem1", str(spath), "--epsilons", "0.5,0.25,0.1"],
        ["trotter", str(spath), "--m-list", "1,4,16", "--epsilons", "0.5,0.25"],
    ]
    outputs = [run_cli(capsys, *argv) for argv in studies]
    assert [out[0] for out in outputs] == [0, 0]
    monkeypatch.setattr(linalg, "spectral_distance", two_branch_spectral_distance)
    assert [run_cli(capsys, *argv) for argv in studies] == outputs


def test_empty_compilation_has_float_depth(tmp_path, capsys):
    # a sum over no steps starts at 0.0, so the depth prints and writes as a float
    spath, gpath, rpath = tmp_path / "zero.json", tmp_path / "gates.json", tmp_path / "report.json"
    run_cli(capsys, "generate", "chain", "--n", "4", "--coupling", "0", "-o", str(spath))
    code, _, err = run_cli(capsys, "compile", str(spath), "--epsilon", "0.5", "-o", str(gpath), "--report", str(rpath))
    assert (code, err) == (0, "compiled 0 steps, weighted depth 0.0\n")
    assert '"weighted_depth": 0.0,' in rpath.read_text()
    code, out, _ = run_cli(capsys, "trotter", str(spath), "--m-list", "2", "--epsilons", "0.5")
    assert (code, out.splitlines()[1:]) == (0, ["trotter,2.0,0.0,0.0,0", "compile,0.5,0.0,0.0,0"])


@pytest.mark.parametrize("coupling", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generate_refuses_a_non_finite_coupling(tmp_path, capsys, kind, coupling):
    # the coupling is refused by name before numpy multiplies by it, so no warning escapes
    path = tmp_path / "s.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "generate", kind, "--n", "3", "--coupling", coupling, "-o", str(path))
    assert (code, out, caught) == (2, "", [])
    assert err == f"error: coupling must be a finite number, got {float(coupling)}\n"
    assert "Warning" not in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "chain", "--n", "3", "--coupling", "-1e3"],
        ["generate", "chain", "--n", "3", "--coupling", "-inf"],
        ["generate", "chain", "--n", "3", "--coupling", "-NaN"],
        ["generate", "chain", "--n", "3", "--t", "-1e3"],
        ["generate", "random_graph", "--n", "3", "--p", "-1e-3"],
        ["compile", "chain.json", "--epsilon", "-1e-3"],
        ["simulate", "chain.json", "--tol", "-1e-3"],
        ["verify", "theorem1", "chain.json", "--epsilons", "0.1", "--tol", "-1e-3"],
        ["verify", "theorem1", "chain.json", "--epsilons", "-1e-3"],
        ["verify", "variance", "--n", "3", "--alpha", "-1e-3"],
        ["verify", "variance", "--n", "3", "--alpha", "0.25", "--tol", "-1e-3"],
        ["trotter", "chain.json", "--m-list", "1", "--epsilons", "-1e-3,-2"],
        ["trotter", "chain.json", "--m-list", "1", "--tol", "-inf"],
    ],
)
def test_float_options_take_negative_numbers_in_any_spelling(tmp_path, capsys, monkeypatch, argv):
    # argparse alone reads only -<digits> and -<digits>.<digits> as numbers and
    # took -1e3 or -inf for an option ("expected one argument"); every float
    # option now reads them as its value, as its --option=value form does
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "chain", "--n", "3", "-o", "chain.json")
    spaced = run_cli(capsys, *argv)
    joined = run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_compile_refuses_a_gate_angle_beyond_the_float_range(tmp_path, capsys, monkeypatch):
    # delta * (r_1 - r_0) = 1e300 * 1e300 overflows; it used to leak numpy
    # warnings and end on a unitarity error
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "chain", "--n", "3", "--t", "1e300", "--coupling", "1e300", "-o", "h.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "compile", "h.json", "--epsilon", "1e300", "-o", "gates.json")
    assert (code, out, caught) == (2, "", [])
    assert err == "error: the gate angles of the subinterval at t=5e+299 exceed the float range\n"
    assert "Warning" not in err
    assert sorted(os.listdir(tmp_path)) == ["h.json"]


def test_cli_outputs_deterministic(tmp_path, capsys):
    args = ["generate", "random_graph", "--n", "5", "--p", "0.5", "--seed", "9"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    spath = tmp_path / "rand.json"
    spath.write_text(out1)
    c = ["compile", str(spath), "--epsilon", "0.25"]
    _, ga, _ = run_cli(capsys, *c)
    _, gb, _ = run_cli(capsys, *c)
    assert ga == gb
    v = ["verify", "variance", "--n", "3", "--alpha", "0.2", "--trials", "3", "--seed", "4"]
    _, va, _ = run_cli(capsys, *v)
    _, vb, _ = run_cli(capsys, *v)
    assert va == vb


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_generate_rejects_non_finite_total_time(tmp_path, capsys, t):
    path = tmp_path / "chain.json"
    code, _, err = run_cli(capsys, "generate", "chain", "--n", "2", "--t", t, "-o", str(path))
    assert code == 2
    assert err.startswith("error: total time must be a finite positive number")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "random_graph", "--n", "3", "--seed", "-1"],
        ["generate", "random_time_varying", "--n", "3", "--seed", "-1"],
        ["verify", "variance", "--n", "3", "--alpha", "0.1", "--trials", "1", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "argv, pair",
    [
        (["generate", "random_time_varying", "--n", "3", "--t", "1e40", "--degree", "8"], r"\(0, \d\)"),
        (["index", "{doc}"], r"\(0, 1\)"),
        (["compile", "{doc}", "--epsilon", "1e40"], r"\(0, 1\)"),
        (["verify", "theorem1", "{doc}", "--epsilons", "1e40,5e39"], r"\(0, 1\)"),
        (["simulate", "{doc}"], r"\(0, 1\)"),
    ],
)
def test_pair_term_beyond_the_float_range_exits_2(tmp_path, capsys, argv, pair):
    # t^8 overflows at t = 1e40: the pair term, not a matrix check, is reported
    doc = tmp_path / "big.json"
    term = {"pair": [0, 1], "coeffs": {"XX": [0, 0, 0, 0, 0, 0, 0, 0, 1.0]}}
    segment = {"t_start": 0.0, "t_end": 1e40, "terms": [term]}
    doc.write_text(json.dumps({"format": "chromlc-schedule", "version": 1, "n_qubits": 2, "segments": [segment]}))
    code, out, err = run_cli(capsys, *(a.format(doc=doc) for a in argv))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: pair {pair}: the term at t=\S+ exceeds the float range\n", err), err


@pytest.mark.parametrize("argv", [["index"], ["simulate"], ["compile", "--epsilon", "0.1"]])
@pytest.mark.parametrize(
    "literal, message",
    [
        pytest.param(
            "Infinity", "error: segments[0]: segment ends must be finite, got [0.0, inf]", id="Infinity"
        ),
        pytest.param(
            "1" + "0" * 400, "error: segments[0].t_end: number too large for a float", id="10**400"
        ),
    ],
)
def test_unrepresentable_segment_end_exits_2(tmp_path, capsys, argv, literal, message):
    path = tmp_path / "chain.json"
    text = dumps_schedule(chain(2))
    assert '"t_end":1.0' in text
    path.write_text(text.replace('"t_end":1.0', f'"t_end": {literal}'))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert err == message + "\n"
    assert out == ""


def test_usage_error_exits_2(capsys):
    assert main(["compile"]) == 2
    capsys.readouterr()
    assert main(["generate", "unknown_kind", "--n", "4"]) == 2
    capsys.readouterr()
