import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromlc import cli, linalg
from chromlc.compiler import Gate, GateSchedule, Step, compile
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
    """Equal pairs, steps and generators; unitaries and angles within 1e-12."""
    assert loaded.n_qubits == g.n_qubits
    assert [[gate.pair for gate in step.gates] for step in loaded.steps] == [
        [gate.pair for gate in step.gates] for step in g.steps
    ]
    pairs = [(a, b) for x, y in zip(loaded.steps, g.steps) for a, b in zip(x.gates, y.gates)]
    assert all(np.array_equal(a.generator, b.generator) for a, b in pairs)
    assert max((np.max(np.abs(a.unitary - b.unitary)) for a, b in pairs), default=0.0) <= 1e-12
    assert max((abs(a.angle - b.angle) for a, b in pairs), default=0.0) <= 1e-12


def test_compiled_gates_roundtrip():
    gates, _ = compile(chain(4, 1.0, 1.0), 0.25)
    _assert_same_gates(loads_gates(dumps_gates(gates)), gates)
    # one generator per gate: the past-pi angles are the unitaries' again
    assert max(gate.angle for step in _PAST_PI.steps for gate in step.gates) < math.pi
    _assert_same_gates(loads_gates(dumps_gates(_PAST_PI)), _PAST_PI)


@pytest.mark.parametrize(
    "generate",
    [
        ["random_graph", "--n", "8", "--p", "0.5", "--segments", "4", "--seed", "7"],
        ["random_graph", "--n", "8", "--p", "0.5", "--segments", "4", "--seed", "11"],
        ["random_time_varying", "--n", "6", "--p", "0.6", "--seed", "3"],
        ["random_time_varying", "--n", "6", "--p", "0.6", "--seed", "11"],
    ],
    ids=["pwc-7", "pwc-11", "tv-3", "tv-11"],
)
def test_compiled_gate_documents_roundtrip(generate, tmp_path, capsys):
    spath, gpath = tmp_path / "doc.json", tmp_path / "gates.json"
    assert cli.main(["generate", *generate, "-o", str(spath)]) == 0
    g, _ = compile(load_schedule(spath), 0.05)
    text = dumps_gates(g)
    loaded = loads_gates(text)
    _assert_same_gates(loaded, g)
    assert dumps_gates(loaded) == text
    gpath.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["simulate", str(gpath), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    amp = propagate(g, basis_state(g.n_qubits, 0))
    assert abs(doc["norm"] - np.linalg.norm(amp)) < 1e-12
    for row in doc["amplitudes"]:
        assert abs(complex(row["re"], row["im"]) - amp[row["index"]]) < 1e-12


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


@pytest.mark.parametrize("version", [True, 2.0, "2", 1])
def test_gates_parse_version_must_be_the_integer_2(version):
    doc = _gate_document()
    doc["version"] = version
    with pytest.raises(SchemaVersionMismatch, match=rf"^version: expected 2, got {version!r}$"):
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
    return json.loads(dumps_gates(GateSchedule(2, (Step(tuple(Gate.from_generators([(0, 1)], [ZERO]))),))))


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
        (_gate_document, loads_gates, ("steps", 0, "gates", 0, "generator", 3), "steps[0].gates[0].generator"),
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


def test_gates_parse_names_the_gate_whose_generator_overflows():
    # the generators are checked as one stack: the error maps back to its gate
    doc = json.loads(dumps_gates(_two_step_gates()))
    doc["steps"][1]["gates"][0]["generator"][5:11:5] = [1e308, 1e308]  # XX + YY: ||A|| = 2e308
    with pytest.raises(
        ParseError,
        match=r"^steps\[1\]\.gates\[0\]\.generator: expected finite coefficients whose absolute values sum "
        r"within the float range$",
    ):
        loads_gates(json.dumps(doc))


def test_gates_roundtrip_keeps_a_gate_with_a_near_degenerate_generator():
    # two eigenvalues 6e-9 apart around pi/2: eigh resolves them, and the
    # loaded gate is the gate written, bit for bit
    v = haar_unitary(4, np.random.default_rng(0))
    h = (v * np.array([math.pi / 2 - 3e-9, math.pi / 2 + 3e-9, 0.5, 0.2])) @ v.conj().T
    g = GateSchedule(2, (Step(tuple(Gate.from_generators([(0, 1)], [pauli_coeffs((h + h.conj().T) / 2)]))),))
    assert abs(g.steps[0].gates[0].angle - (math.pi / 2 + 3e-9)) < 1e-12
    assert loads_gates(dumps_gates(g)) == g


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_gates_parse_rejects_non_finite_generator(value):
    # json reads these literals; the encoder could not write them back
    text = dumps_gates(_two_step_gates())
    doc = json.loads(text)
    entry = doc["steps"][0]["gates"][1]["generator"][7]
    assert text.count(repr(entry)) == 1
    with pytest.raises(ParseError, match=r"^steps\[0\]\.gates\[1\]\.generator: expected finite coefficients"):
        loads_gates(text.replace(repr(entry), value))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("generator",), {"XX": 1.0}, r"generator: expected a list of 16 numbers"),
        (("generator",), [0.0] * 15, r"generator: expected a list of 16 numbers"),
        (("generator",), [0.0] * 17, r"generator: expected a list of 16 numbers"),
        (("generator", 4), True, r"generator: expected a list of 16 numbers"),
        (("generator", 4), "x", r"generator: expected a list of 16 numbers"),
        (("generator", 4), None, r"generator: expected a list of 16 numbers"),
        (("generator", 4), 10**400, r"generator: number too large for a float"),
        (("generator", 4), float("nan"), r"generator: expected finite coefficients .*"),
        (("pair",), [3, 2], r"pair: indices must satisfy 0 <= k < l, got \[3, 2\]"),
        (("pair",), ["a", 1], r"pair: expected \[k, l\] with integer entries"),
    ],
)
def test_gates_parse_names_the_bad_gate_of_a_step(path, value, message):
    doc = json.loads(dumps_gates(compile(disjoint_pairs(6), 0.5)[0]))
    node = doc["steps"][1]["gates"][2]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParseError, match=rf"^steps\[1\]\.gates\[2\]\.{message}$"):
        loads_gates(json.dumps(doc))


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
    assert calls == ["eigh"]  # one for the document's generators; the unitaries are unitary by construction
    _assert_same_gates(loaded, g)


def test_gates_parse_rejects_overlapping_step():
    rng = np.random.default_rng(4)
    a = gate_from_unitary((0, 1), haar_unitary(4, rng))
    b = gate_from_unitary((1, 2), haar_unitary(4, rng))
    doc = {
        "format": "chromlc-gates",
        "version": 2,
        "n_qubits": 3,
        "steps": [
            {
                "gates": json.loads(dumps_gates(GateSchedule(3, (Step((a,)),))))["steps"][0]["gates"]
                + json.loads(dumps_gates(GateSchedule(3, (Step((b,)),))))["steps"][0]["gates"]
            }
        ],
    }
    with pytest.raises(ParseError, match="overlap"):
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
    """The gate document as ``json.dumps(separators=(",", ":"))`` writes it, built here."""
    steps = [
        {
            "gates": [
                {"pair": [gate.pair[0], gate.pair[1]], "generator": [float(c) for c in gate.generator]}
                for gate in step.gates
            ]
        }
        for step in g.steps
    ]
    doc = {"format": "chromlc-gates", "version": 2, "n_qubits": g.n_qubits, "steps": steps}
    return json.dumps(doc, separators=(",", ":")) + "\n"


# finite floats, with the entries whose rendering is easy to get wrong
_COEFFICIENT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-17, -1e-17, 5e-324, 0.1])


@st.composite
def _gate_schedules(draw):
    """Zero to four steps of one to three gates on disjoint pairs of six
    qubits, with any finite generators: the encoder writes only pairs and
    generators, so the unitaries are left the identity."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        qubits = draw(st.permutations(range(6)))
        gates = []
        for j in range(draw(st.integers(1, 3))):
            pair = tuple(sorted(qubits[2 * j : 2 * j + 2]))
            generator = draw(st.lists(_COEFFICIENT, min_size=16, max_size=16))
            gates.append(Gate(pair, np.eye(4), 0.0, generator))
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
    generator = np.zeros(16)
    generator[[1, 5, 10, 15]] = 1e-17, -0.0, 0.1, 1e308
    g = GateSchedule(4, (Step(tuple(Gate.from_generators([(0, 1), (2, 3)], [generator, ZERO]))),))
    text = dumps_gates(g)
    assert text == _reference_text(g)
    for literal in ("1e-17", "-0.0", "0.1", "1e+308"):
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
                Step(tuple(Gate.from_generators([(0, 1)], [ZERO]))),
                Step((gate_from_unitary((1, 2), haar_unitary(4, np.random.default_rng(5))),)),
            ),
        )
    )
)
# the fuzz values, and generator-shaped lists of any floats
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
@example(path=("steps", 1, "gates", 0, "generator", 3), value=10**400)
@example(path=("steps", 1, "gates", 0, "generator", 15), value=-(10**400))
@example(path=("steps", 1, "gates", 0, "generator", 5), value={"re": 1.0})
@example(path=("steps", 1, "gates", 0, "generator", 5), value=True)
@example(path=("steps", 1, "gates", 0, "generator", 5), value="x")
@example(path=("steps", 1, "gates", 0, "generator", 5), value=None)
@example(path=("steps", 1, "gates", 0, "generator"), value=[1e308] * 16)
@example(path=("steps", 0, "gates", 0, "generator"), value=[0.0] * 15)
def test_fuzzed_gates_parse_or_raise_chromlc_error(path, value):
    _check_fuzzed(_GATES_BASE, loads_gates, path, value)
