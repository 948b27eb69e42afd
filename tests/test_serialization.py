import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromlc import cli, linalg
from chromlc.compiler import Gate, GateSchedule, Step, compile, trotterize
from chromlc.errors import ChromlcError, ParseError, SchemaVersionMismatch
from chromlc.hamiltonian import (
    PAULI_LABELS,
    HamiltonianSchedule,
    chain,
    complete_mean_field,
    disjoint_pairs,
    pauli_coeffs,
    random_graph,
    random_time_varying,
)
from chromlc.simulator import basis_state, propagate
from chromlc.serialization import (
    dumps_gates,
    dumps_schedule,
    load_document,
    load_gates,
    load_schedule,
    loads_gates,
    loads_schedule,
)

from helpers import (
    FUZZ_VALUES,
    gate_from_unitary,
    haar_unitary,
    node_paths,
    pair_segment,
    per_row_dumps_schedule,
    random_gate_schedule,
    replace_node,
)

ZERO = np.zeros(16)


GENERATOR_OUTPUTS = [
    chain(4, 1.0, 1.0),
    disjoint_pairs(6, 2.0, 0.5),
    complete_mean_field(4, 0.5, 1.5),
    random_graph(5, 1.0, p=0.6, seed=3, segments=3),
    random_time_varying(4, 1.0, p=0.8, seed=5, degree=3),
]


@pytest.mark.parametrize("schedule", GENERATOR_OUTPUTS)
def test_schedule_roundtrip_objects(schedule):
    assert loads_schedule(dumps_schedule(schedule)) == schedule


@pytest.mark.parametrize("schedule", GENERATOR_OUTPUTS)
def test_schedule_roundtrip_text(schedule):
    text = dumps_schedule(schedule)
    assert dumps_schedule(loads_schedule(text)) == text


_TRIMMED = HamiltonianSchedule(
    3,
    (
        pair_segment(
            0.0,
            0.5,
            {
                (0, 1): {"XX": (1.0, 0.0, 0.0), "YZ": (0.0, 0.0, 2.5), "ZZ": (-1.0, 0.0, 3.0, 0.0)},
                (0, 2): {"XY": (0.5, -0.0), "II": (0.0,)},
                (1, 2): {},  # every row zero
            },
        ),
        pair_segment(0.5, 1.0, {(1, 2): {"ZX": (0.25,)}}),
    ),
)


@pytest.mark.parametrize(
    "schedule",
    GENERATOR_OUTPUTS + [complete_mean_field(40), random_time_varying(7, p=0.5, seed=5, degree=8), _TRIMMED],
)
def test_dumps_schedule_matches_trimming_each_row(schedule):
    assert dumps_schedule(schedule) == per_row_dumps_schedule(schedule)


def test_dumps_schedule_trims_each_row_to_its_last_nonzero_coefficient():
    doc = json.loads(dumps_schedule(_TRIMMED))
    terms = doc["segments"][0]["terms"]
    assert terms[0]["coeffs"] == {"XX": [1.0], "YZ": [0.0, 0.0, 2.5], "ZZ": [-1.0, 0.0, 3.0]}
    assert terms[1]["coeffs"] == {"XY": [0.5]}
    assert terms[2]["coeffs"] == {}


def test_gates_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_gate_schedule(4, rng)
        assert loads_gates(dumps_gates(g)) == g
        text = dumps_gates(g)
        assert dumps_gates(loads_gates(text)) == text


def _assert_same_gates(loaded, g):
    """Equal gate schedules, each gate's unitary, angle, term and duration
    bit for bit: the reader builds every gate by compile's one formula."""
    assert loaded == g

    def bits(gate):
        return gate.unitary.tobytes(), gate.term.tobytes(), np.array([gate.angle, gate.duration]).tobytes()

    assert [bits(gate) for step in loaded.steps for gate in step.gates] == [
        bits(gate) for step in g.steps for gate in step.gates
    ]


def test_compiled_gates_roundtrip():
    gates, _ = compile(chain(4, 1.0, 1.0), 0.25)
    _assert_same_gates(loads_gates(dumps_gates(gates)), gates)
    # one generator per gate: the past-pi angles are the unitaries' again
    assert max(gate.angle for step in _PAST_PI.steps for gate in step.gates) < math.pi
    _assert_same_gates(loads_gates(dumps_gates(_PAST_PI)), _PAST_PI)


@pytest.mark.parametrize(
    "generate, n_terms",
    [
        (["random_graph", "--n", "8", "--p", "0.5", "--segments", "4", "--seed", "7"], 55),
        (["random_graph", "--n", "8", "--p", "0.5", "--segments", "4", "--seed", "11"], 50),
        (["random_time_varying", "--n", "6", "--p", "0.6", "--seed", "3"], 220),
        (["random_time_varying", "--n", "6", "--p", "0.6", "--seed", "11"], 200),
        (["chain", "--n", "4", "--coupling", "100"], 1),  # _PAST_PI: three pairs of one term, angles past pi
    ],
    ids=["pwc-7", "pwc-11", "tv-3", "tv-11", "past-pi"],
)
def test_compiled_gate_documents_roundtrip(generate, n_terms, tmp_path, capsys):
    # the benchmark's compile documents: the table holds one row per sampled
    # pair term (20 samples of 11 edges for tv-3; for pwc-7, 13 + 10 + 15 +
    # 17 terms, as a constant segment's repeated subintervals add none); the
    # gates read back bit for bit, the text survives a reload, and simulate
    # on the file gives the in-process amplitudes exactly
    spath, gpath = tmp_path / "doc.json", tmp_path / "gates.json"
    assert cli.main(["generate", *generate, "-o", str(spath)]) == 0
    g, _ = compile(load_schedule(spath), 0.05)
    text = dumps_gates(g)
    assert len(json.loads(text)["terms"]) == n_terms
    loaded = loads_gates(text)
    _assert_same_gates(loaded, g)
    assert dumps_gates(loaded) == text
    gpath.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["simulate", str(gpath), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    amp = propagate(g, basis_state(g.n_qubits, 0))
    assert doc["norm"] == np.linalg.norm(amp)
    assert len(doc["amplitudes"]) == min(16, len(amp))
    for row in doc["amplitudes"]:
        assert complex(row["re"], row["im"]) == amp[row["index"]]


def test_parse_rejects_pair_k_equals_l():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["segments"][0]["terms"][0]["pair"] = [1, 1]
    with pytest.raises(ParseError, match=r"segments\[0\].terms\[0\]"):
        loads_schedule(json.dumps(doc))


def test_parse_rejects_empty_segments():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["segments"] = []
    with pytest.raises(ParseError, match=r"schedule must cover \[0,T\]"):
        loads_schedule(json.dumps(doc))


def test_parse_rejects_gap_in_tiling():
    doc = json.loads(dumps_schedule(random_graph(4, seed=1, segments=2)))
    doc["segments"][1]["t_start"] = 0.75
    with pytest.raises(ParseError, match="tile"):
        loads_schedule(json.dumps(doc))


def test_parse_version_and_format():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["version"] = 2
    with pytest.raises(SchemaVersionMismatch):
        loads_schedule(json.dumps(doc))
    doc["version"] = 1
    doc["format"] = "something-else"
    with pytest.raises(SchemaVersionMismatch):
        loads_schedule(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_parse_version_must_be_the_integer_1(version):
    doc = json.loads(dumps_schedule(chain(3)))
    doc["version"] = version
    with pytest.raises(SchemaVersionMismatch, match=r"^version: expected 1, got "):
        loads_schedule(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 3.0, "3", 2, 1])
def test_gates_parse_version_must_be_the_integer_3(version):
    # one reader: version-2 documents, one generator list per gate, are refused
    doc = _gate_document()
    doc["version"] = version
    with pytest.raises(SchemaVersionMismatch, match=rf"^version: expected 3, got {version!r}$"):
        loads_gates(json.dumps(doc))


def test_parse_reports_json_syntax_location():
    with pytest.raises(ParseError, match="line 1"):
        loads_schedule("{not json")


def test_parse_rejects_unknown_pauli_key():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["segments"][0]["terms"][0]["coeffs"]["QQ"] = [1.0]
    with pytest.raises(ParseError, match="QQ"):
        loads_schedule(json.dumps(doc))


def test_parse_warns_on_global_phase_component():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["segments"][0]["terms"][0]["coeffs"]["II"] = [0.5]
    with pytest.warns(UserWarning, match="global phase"):
        loads_schedule(json.dumps(doc))


def test_generator_documents_parse_without_warnings():
    for schedule in GENERATOR_OUTPUTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loads_schedule(dumps_schedule(schedule))


_COEFFICIENTS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -3]),
    st.floats(-1e3, 1e3),
    st.integers(-(10**6), 10**6),
)
_TERMS = st.lists(
    st.dictionaries(st.sampled_from(PAULI_LABELS), st.lists(_COEFFICIENTS, max_size=9), max_size=5),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(terms=_TERMS)
def test_parse_fills_the_array_as_trimming_each_list(terms):
    pairs = [(k, l) for k in range(4) for l in range(k + 1, 4)][: len(terms)]
    doc = {
        "format": "chromlc-schedule",
        "version": 1,
        "n_qubits": 4,
        "segments": [{"t_start": 0, "t_end": 1, "terms": [{"pair": p, "coeffs": c} for p, c in zip(pairs, terms)]}],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (seg,) = loads_schedule(json.dumps(doc)).segments
    # the oracle: each list with its trailing zeros dropped, written into a zero array
    polys = [{label: np.trim_zeros(np.array(c, dtype=float), "b") for label, c in term.items()} for term in terms]
    oracle = np.zeros((len(terms), 16, max([1] + [poly.size for term in polys for poly in term.values()])))
    for i, term in enumerate(polys):
        for label, poly in term.items():
            oracle[i, PAULI_LABELS.index(label), : poly.size] = poly
    assert seg.pairs == tuple(pairs)
    assert seg.tracks.shape == oracle.shape and seg.tracks.tobytes() == oracle.tobytes()
    assert [str(w.message) for w in caught] == [
        f"segments[0].terms[{i}]: II component only shifts the global phase; it still counts toward the interaction norm"
        for i, term in enumerate(polys)
        if term.get("II", np.zeros(0)).size
    ]


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([0.5, True], "expected a number, got True"),
        ([0.5, "x"], "expected a number, got 'x'"),
        ([0.5, 10**400], "number too large for a float"),
        ([0] * 9 + [1], "polynomial degree exceeds 8"),
        ([0] * 50000 + [1], "polynomial degree exceeds 8"),
    ],
    ids=["true", "string", "10**400", "degree-9", "degree-50000"],
)
def test_parse_names_a_bad_list_of_a_later_term(coeffs, message):
    # the lists of a segment are checked as one stack; a failure still names its list
    doc = _schedule_document()
    labels = list(doc["segments"][0]["terms"][2]["coeffs"])
    doc["segments"][0]["terms"][2]["coeffs"][labels[1]] = coeffs
    with pytest.raises(ParseError) as info:
        loads_schedule(json.dumps(doc))
    assert str(info.value) == f"segments[0].terms[2].coeffs.{labels[1]}: {message}"


def test_parse_reports_unreadable_json():
    # json.loads raises plain ValueError and RecursionError for these
    with pytest.raises(ParseError, match="not a readable JSON document"):
        loads_schedule('{"n_qubits": 1' + "0" * 5000 + "}")
    with pytest.raises(ParseError, match="not a readable JSON document"):
        loads_gates("[" * 100000 + "]" * 100000)


def test_parse_trims_coefficients_before_building_the_array():
    doc = json.loads(dumps_schedule(chain(4)))
    doc["segments"][0]["terms"][0]["coeffs"]["XX"] += [0.0] * 50000
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        s = loads_schedule(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s == chain(4)
    # padded to 50001 degrees, the (3, 16, degree + 1) array alone would take 19 MB
    assert peak < 8e6
    doc["segments"][0]["terms"][0]["coeffs"]["XX"] = [0.0] * 50000 + [1.0]
    with pytest.raises(ParseError, match=r"segments\[0\]\.terms\[0\]\.coeffs\.XX: polynomial degree exceeds 8"):
        loads_schedule(json.dumps(doc))


def _gate_document():
    return json.loads(dumps_gates(GateSchedule(2, (Step(tuple(Gate.from_terms([(0, 1)], [ZERO], [0], [1.0]))),))))


def _schedule_document():
    return json.loads(dumps_schedule(chain(4)))


@pytest.mark.parametrize(
    "make_doc, loads, path, field",
    [
        (
            _schedule_document,
            loads_schedule,
            ("segments", 0, "terms", 1, "coeffs", "XX", 0),
            "segments[0].terms[1].coeffs.XX",
        ),
        (_schedule_document, loads_schedule, ("segments", 0, "t_start"), "segments[0].t_start"),
        (_schedule_document, loads_schedule, ("segments", 0, "t_end"), "segments[0].t_end"),
        (_gate_document, loads_gates, ("terms", 0, 3), "terms[0]"),
        (_gate_document, loads_gates, ("steps", 0, "gates", 0, "duration"), "steps[0].gates[0].duration"),
    ],
)
def test_parse_rejects_numbers_too_large_for_a_float(make_doc, loads, path, field):
    doc = make_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400  # a JSON integer no float can hold
    with pytest.raises(ParseError) as info:
        loads(json.dumps(doc))
    assert str(info.value) == f"{field}: number too large for a float"


def _two_step_gates():
    rng = np.random.default_rng(6)
    steps = [
        Step((gate_from_unitary((0, 1), haar_unitary(4, rng)), gate_from_unitary((2, 3), haar_unitary(4, rng)))),
        Step((gate_from_unitary((1, 2), haar_unitary(4, rng)), gate_from_unitary((0, 3), haar_unitary(4, rng)))),
    ]
    return GateSchedule(4, tuple(steps))


def _huge(*labels):
    return [1e308 if label in labels else 0.0 for label in PAULI_LABELS]


def _use_row(doc, row, duration):
    doc["steps"][1]["gates"][0].update(term=row, duration=duration)


_BEYOND_ROW = r"the term's matrix and norm must lie within the float range$"
_BEYOND_GENERATOR = (
    r"the generator, duration times term, must have coefficients whose absolute values sum within the float range$"
)


@pytest.mark.parametrize(
    "edit, message",
    [
        # a used row beyond the range at duration 1.0 sums its generator beyond it too; that check,
        # made on the walk over the steps, comes first
        (
            lambda doc: doc["terms"].__setitem__(2, _huge("XX", "YY")),
            r"steps\[1\]\.gates\[0\]\.duration: " + _BEYOND_GENERATOR,
        ),
        # a bad step field is named before a row beyond the range
        (
            lambda doc: (
                doc["terms"].__setitem__(2, _huge("XX", "YY")),
                _use_row(doc, 2, 1e-300),
                doc["steps"][1]["gates"][1].update(pair=[0, 9]),
            ),
            r"steps\[1\]\.gates\[1\]\.pair: \[0, 9\] exceeds the register of 4 qubits$",
        ),
        # the reader diagonalizes the term itself, so a tiny duration does not bring it back into range
        (
            lambda doc: (doc["terms"].__setitem__(2, _huge("XX", "YY")), _use_row(doc, 2, 1e-300)),
            r"terms\[2\]: " + _BEYOND_ROW,
        ),
        (lambda doc: _use_row(doc, 2, 1e308), r"steps\[1\]\.gates\[0\]\.duration: " + _BEYOND_GENERATOR),
        # the gate is named from the steps' ends: a later gate of a later step, also past an empty step
        (
            lambda doc: doc["steps"][1]["gates"][1].update(term=2, duration=1e308),
            r"steps\[1\]\.gates\[1\]\.duration: " + _BEYOND_GENERATOR,
        ),
        (
            lambda doc: (
                doc["steps"][1]["gates"][1].update(term=2, duration=1e308),
                doc["steps"].insert(1, {"gates": []}),
            ),
            r"steps\[2\]\.gates\[1\]\.duration: " + _BEYOND_GENERATOR,
        ),
    ],
    ids=[
        "term",
        "term-and-bad-pair",
        "term-at-tiny-duration",
        "duration",
        "duration-of-a-later-gate",
        "duration-after-an-empty-step",
    ],
)
def test_gates_parse_names_the_gate_whose_generator_overflows(edit, message):
    # each gate is read and its generator, duration times term, checked;
    # then Gate.from_terms checks the table's matrices and norms as one
    # stack: each error maps back to its gate or row
    doc = json.loads(dumps_gates(_two_step_gates()))
    assert doc["steps"][1]["gates"][0]["term"] == 2 and len(doc["terms"]) == 4
    edit(doc)
    with pytest.raises(ParseError, match="^" + message):
        loads_gates(json.dumps(doc))


def test_gates_read_diagonalizes_each_table_row_once(tmp_path, monkeypatch):
    # the compile_tv instance: 1320 gates that run 220 distinct terms
    spath, gpath = tmp_path / "tv.json", tmp_path / "gates.json"
    assert cli.main(["generate", "random_time_varying", "--n", "6", "--p", "0.6", "--seed", "3", "-o", str(spath)]) == 0
    assert cli.main(["compile", str(spath), "--epsilon", "0.05", "-o", str(gpath)]) == 0
    doc = json.loads(gpath.read_text())
    assert (len(doc["terms"]), sum(len(step["gates"]) for step in doc["steps"])) == (220, 1320)
    matrices = []  # the number of matrices of each eigensolver call

    def counting(name):
        original = getattr(np.linalg, name)

        def count(a, *args, **kwargs):
            matrices.append(math.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, count)

    counting("eigh")
    counting("eigvalsh")
    g = load_gates(gpath)
    assert sum(matrices) == 220
    assert sum(len(step.gates) for step in g.steps) == 1320


def test_gates_roundtrip_keeps_a_gate_with_a_near_degenerate_generator():
    # two eigenvalues 6e-9 apart around pi/2: eigh resolves them, and the
    # loaded gate is the gate written, bit for bit
    v = haar_unitary(4, np.random.default_rng(0))
    h = (v * np.array([math.pi / 2 - 3e-9, math.pi / 2 + 3e-9, 0.5, 0.2])) @ v.conj().T
    g = GateSchedule(2, (Step(tuple(Gate.from_terms([(0, 1)], [pauli_coeffs((h + h.conj().T) / 2)], [0], [1.0]))),))
    assert abs(g.steps[0].gates[0].angle - (math.pi / 2 + 3e-9)) < 1e-12
    assert loads_gates(dumps_gates(g)) == g


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_gates_parse_rejects_a_non_finite_term(value):
    # json reads these literals; the encoder could not write them back
    text = dumps_gates(_two_step_gates())
    entry = json.loads(text)["terms"][1][7]
    assert text.count(repr(entry)) == 1
    with pytest.raises(ParseError, match=r"^terms\[1\]: expected a list of 16 finite numbers$"):
        loads_gates(text.replace(repr(entry), value))


_MISSING = object()  # a key to delete
_GATE = ("steps", 1, "gates", 2)  # the last gate of the second step


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("terms",), {"XX": 1.0}, "document.terms: expected a list"),
        (("terms", 0), {"XX": 1.0}, "terms[0]: expected a list of 16 numbers"),
        (("terms", 0), [0.0] * 15, "terms[0]: expected a list of 16 numbers"),
        (("terms", 0), [0.0] * 17, "terms[0]: expected a list of 16 numbers"),
        (("terms", 0, 4), True, "terms[0]: expected a list of 16 numbers"),
        (("terms", 0, 4), "x", "terms[0]: expected a list of 16 numbers"),
        (("terms", 0, 4), None, "terms[0]: expected a list of 16 numbers"),
        (("terms", 0, 4), 10**400, "terms[0]: number too large for a float"),
        (("terms", 0, 4), float("nan"), "terms[0]: expected a list of 16 finite numbers"),
        (("terms", 0, 4), float("inf"), "terms[0]: expected a list of 16 finite numbers"),
        (_GATE + ("term",), _MISSING, "term: expected an integer in [0, 1), got None"),
        (_GATE + ("term",), True, "term: expected an integer in [0, 1), got True"),
        (_GATE + ("term",), 0.0, "term: expected an integer in [0, 1), got 0.0"),
        (_GATE + ("term",), 1, "term: expected an integer in [0, 1), got 1"),
        (_GATE + ("term",), -1, "term: expected an integer in [0, 1), got -1"),
        (_GATE + ("duration",), 10**400, "duration: number too large for a float"),
        (_GATE + ("duration",), float("nan"), "duration: expected a finite number >= 0, got nan"),
        (_GATE + ("duration",), float("inf"), "duration: expected a finite number >= 0, got inf"),
        (_GATE + ("duration",), -1, "duration: expected a finite number >= 0, got -1.0"),
        (_GATE + ("duration",), True, "duration: expected a number, got True"),
        (_GATE + ("duration",), "x", "duration: expected a number, got 'x'"),
        (_GATE + ("duration",), _MISSING, "duration: expected a number, got None"),
        (_GATE + ("pair",), [3, 2], "pair: indices must satisfy 0 <= k < l, got [3, 2]"),
        (_GATE + ("pair",), ["a", 1], "pair: expected [k, l] with integer entries"),
        (_GATE + ("pair",), [4, 6], "pair: [4, 6] exceeds the register of 6 qubits"),
    ],
    ids=[
        "terms-object",
        "term-row-object",
        "term-row-short",
        "term-row-long",
        "term-entry-true",
        "term-entry-string",
        "term-entry-null",
        "term-entry-10**400",
        "term-entry-nan",
        "term-entry-infinity",
        "term-missing",
        "term-true",
        "term-float",
        "term-past-the-table",
        "term-negative",
        "duration-10**400",
        "duration-nan",
        "duration-infinity",
        "duration-negative",
        "duration-true",
        "duration-string",
        "duration-missing",
        "pair-reversed",
        "pair-string",
        "pair-beyond-the-register",
    ],
)
def test_gates_parse_names_the_bad_field(path, value, message):
    # one rule a case; the document: 2 steps of 3 gates that share one term
    doc = json.loads(dumps_gates(compile(disjoint_pairs(6), 0.5)[0]))
    assert len(doc["terms"]) == 1
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    if path[0] == "steps":
        message = "steps[1].gates[2]." + message
    with pytest.raises(ParseError) as info:
        loads_gates(json.dumps(doc))
    assert str(info.value) == message


def test_trotterize_documents_hold_one_term_per_pair():
    # m passes over the pair list run the same ten distinct terms
    s = random_graph(5, p=1.0, seed=0)
    g = trotterize(s, 4)
    text = dumps_gates(g)
    doc = json.loads(text)
    assert len(doc["terms"]) == len(s.segments[0].pairs) == 10
    assert [gate["term"] for step in doc["steps"] for gate in step["gates"]] == list(range(10)) * 4
    _assert_same_gates(loads_gates(text), g)
    assert dumps_gates(loads_gates(text)) == text


def test_gates_parse_builds_the_document_by_one_eigensolve(monkeypatch):
    g, _ = compile(disjoint_pairs(6), 0.25)  # 4 steps of 3 gates
    text = dumps_gates(g)
    calls = []
    originals = {"eigh": np.linalg.eigh, "is_unitary": linalg.is_unitary}

    def counting(name):
        def count(*args):
            calls.append(name)
            return originals[name](*args)

        return count

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh"))
    monkeypatch.setattr(linalg, "is_unitary", counting("is_unitary"))
    loaded = loads_gates(text)
    assert len(loaded.steps) == 4
    assert calls == ["eigh"]  # one for the document's terms; the unitaries are unitary by construction
    _assert_same_gates(loaded, g)


def test_gates_parse_rejects_overlapping_step():
    rng = np.random.default_rng(4)
    a = gate_from_unitary((0, 1), haar_unitary(4, rng))
    b = gate_from_unitary((1, 2), haar_unitary(4, rng))
    doc = json.loads(dumps_gates(GateSchedule(3, (Step((a,)), Step((b,))))))
    doc["steps"] = [{"gates": doc["steps"][0]["gates"] + doc["steps"][1]["gates"]}]
    with pytest.raises(ParseError, match=r"^steps\[0\]: step gates overlap at pair \(1, 2\)$"):
        loads_gates(json.dumps(doc))


def test_file_helpers_and_dispatch(tmp_path):
    s = chain(4, 1.0, 1.0)
    g, _ = compile(s, 0.5)
    spath = tmp_path / "s.json"
    gpath = tmp_path / "g.json"
    spath.write_text(dumps_schedule(s), encoding="utf-8")
    gpath.write_text(dumps_gates(g), encoding="utf-8")
    assert load_schedule(spath) == s
    assert load_document(spath) == s
    assert load_document(gpath) == loads_gates(dumps_gates(g))
    assert load_gates(gpath) == loads_gates(dumps_gates(g))
    _assert_same_gates(load_gates(gpath), g)
    other = tmp_path / "other.json"
    other.write_text('{"format": "nope", "version": 1}')
    with pytest.raises(SchemaVersionMismatch):
        load_document(other)


# -- encoder against json.dumps ----------------------------------------------


def _reference_text(g):
    """The gate document as ``json.dumps(separators=(",", ":"))`` writes it,
    built here: each term's row found by a scan of the table for its bytes."""
    table = []

    def row(term):
        for i, known in enumerate(table):
            if known.tobytes() == term.tobytes():
                return i
        table.append(term)
        return len(table) - 1

    steps = [
        {
            "gates": [
                {"pair": [gate.pair[0], gate.pair[1]], "term": row(gate.term), "duration": gate.duration}
                for gate in step.gates
            ]
        }
        for step in g.steps
    ]
    terms = [[float(c) for c in term] for term in table]
    doc = {"format": "chromlc-gates", "version": 3, "n_qubits": g.n_qubits, "terms": terms, "steps": steps}
    return json.dumps(doc, separators=(",", ":")) + "\n"


# finite floats, with the entries whose rendering is easy to get wrong
_COEFFICIENT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-17, -1e-17, 5e-324, 0.1])
_DURATION = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, 1e-17, 5e-324, 0.1, 1.0])


@st.composite
def _gate_schedules(draw):
    """Zero to four steps of one to three gates on disjoint pairs of six
    qubits, with any finite terms, drawn from a pool of one to three so
    that gates share them, and any finite durations: the encoder writes
    only pairs, terms and durations, so the unitaries are left the
    identity."""
    pool = draw(st.lists(st.lists(_COEFFICIENT, min_size=16, max_size=16), min_size=1, max_size=3))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        qubits = draw(st.permutations(range(6)))
        gates = []
        for j in range(draw(st.integers(1, 3))):
            pair = tuple(sorted(qubits[2 * j : 2 * j + 2]))
            term = np.array(draw(st.sampled_from(pool)))
            gates.append(Gate(pair, np.eye(4), 0.0, term, draw(_DURATION)))
        steps.append(Step(tuple(gates)))
    return GateSchedule(6, tuple(steps))


_PAST_PI, _ = compile(chain(4, coupling=100.0), 0.05)  # angles taken from the unitaries


@settings(max_examples=150, deadline=None)
@given(_gate_schedules())
@example(GateSchedule(2, ()))
@example(_PAST_PI)
def test_dumps_gates_matches_json_indent(g):
    assert dumps_gates(g) == _reference_text(g)


def test_dumps_gates_examples_cover_the_special_entries():
    term = np.zeros(16)
    term[[1, 5, 10, 15]] = 1e-17, -0.0, 0.1, 1e308
    g = GateSchedule(4, (Step(tuple(Gate.from_terms([(0, 1), (2, 3)], [term, ZERO], [0, 1], [5e-324, 0.0]))),))
    text = dumps_gates(g)
    assert text == _reference_text(g)
    for literal in ("1e-17", "-0.0", "0.1", "1e+308", "5e-324"):
        assert literal in text
    assert dumps_gates(GateSchedule(2, ())).endswith('"steps":[]}\n')
    # each gate's generator has norm 100 * 0.05 = 5 > pi: the angle is the unitary's
    assert all(gate.angle < math.pi for step in _PAST_PI.steps for gate in step.gates)


@pytest.mark.parametrize(
    "obj, dumps, loads",
    [
        (random_time_varying(4, p=0.8, seed=2), dumps_schedule, loads_schedule),
        (loads_gates(dumps_gates(compile(random_graph(4, p=0.8, seed=1, segments=2), 0.5)[0])), dumps_gates, loads_gates),
    ],
    ids=["schedule", "gates"],
)
def test_indented_documents_load_and_dump_compact(obj, dumps, loads):
    # documents were once written as json.dumps(doc, indent=2) lays them out
    text = dumps(obj)
    indented = json.dumps(json.loads(text), indent=2) + "\n"
    assert "\n  " in indented and "\n" not in text[:-1] and " " not in text
    assert loads(indented) == obj
    assert dumps(loads(indented)) == text
    assert text == json.dumps(json.loads(indented), separators=(",", ":")) + "\n"


def test_dumps_gates_writes_each_repeat_of_a_step():
    # constant segments repeat their step objects; a, b, a interleaves two of them
    g, _ = compile(random_graph(5, p=0.6, seed=3, segments=2), 0.25)
    assert len({id(step) for step in g.steps}) < len(g.steps)
    assert dumps_gates(g) == _reference_text(g)
    a, b = g.steps[0], g.steps[-1]
    abab = GateSchedule(g.n_qubits, (a, b, a, b))
    assert dumps_gates(abab) == _reference_text(abab)


# -- fuzzed documents ----------------------------------------------------------

_SCHEDULE_BASE = {
    "format": "chromlc-schedule",
    "version": 1,
    "n_qubits": 3,
    "segments": [
        {
            "t_start": 0.0,
            "t_end": 0.5,
            "terms": [{"pair": [0, 1], "coeffs": {"XX": [1.0, -0.5], "ZZ": [0.25]}}],
        },
        {
            "t_start": 0.5,
            "t_end": 1.0,
            "terms": [
                {"pair": [1, 2], "coeffs": {"YY": [0.5]}},
                {"pair": [0, 2], "coeffs": {"IZ": [0.0, 0.0, 2.0]}},
            ],
        },
    ],
}
_GATES_BASE = json.loads(
    dumps_gates(
        GateSchedule(
            3,
            (
                Step(tuple(Gate.from_terms([(0, 1)], [ZERO], [0], [1.0]))),
                Step((gate_from_unitary((1, 2), haar_unitary(4, np.random.default_rng(5))),)),
            ),
        )
    )
)
# the fuzz values, and term-shaped lists of any floats
_GATES_FUZZ_VALUES = FUZZ_VALUES | st.lists(st.floats() | st.sampled_from([1e308, -1e308]), min_size=16, max_size=16)


def _check_fuzzed(base, loads, path, value):
    """Replace the node at ``path`` by ``value``: the text parses or raises a ChromlcError."""
    doc = replace_node(base, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a nonzero II component warns
        try:
            loads(json.dumps(doc))
        except ChromlcError:
            pass


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(node_paths(_SCHEDULE_BASE))), value=FUZZ_VALUES)
@example(path=("segments", 1, "terms", 0, "coeffs", "YY", 0), value=10**400)
@example(path=("segments", 0, "t_end"), value=10**400)
@example(path=("segments", 1, "t_end"), value=float("inf"))
def test_fuzzed_schedule_parses_or_raises_chromlc_error(path, value):
    _check_fuzzed(_SCHEDULE_BASE, loads_schedule, path, value)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(node_paths(_GATES_BASE))), value=_GATES_FUZZ_VALUES)
@example(path=("terms", 1, 3), value=10**400)
@example(path=("terms", 1, 15), value=-(10**400))
@example(path=("terms", 1, 5), value={"re": 1.0})
@example(path=("terms", 1, 5), value=True)
@example(path=("terms", 1, 5), value="x")
@example(path=("terms", 1, 5), value=None)
@example(path=("terms", 1), value=[1e308] * 16)
@example(path=("terms", 0), value=[0.0] * 15)
@example(path=("terms",), value=[])
@example(path=("steps", 1, "gates", 0, "term"), value=2)
@example(path=("steps", 1, "gates", 0, "term"), value=True)
@example(path=("steps", 1, "gates", 0, "duration"), value=10**400)
@example(path=("steps", 1, "gates", 0, "duration"), value=float("nan"))
@example(path=("steps", 1, "gates", 0, "duration"), value=1e308)
@example(path=("steps", 1, "gates", 0, "pair"), value=[1, 3])
def test_fuzzed_gates_parse_or_raise_chromlc_error(path, value):
    _check_fuzzed(_GATES_BASE, loads_gates, path, value)
