"""JSON wire formats: every document the package reads or writes.

Three document types, distinguished by their ``format`` field:

* ``chromlc-schedule`` -- piecewise-polynomial Hamiltonian schedules.
  Pauli keys are two-letter strings over {I,X,Y,Z}; omitted keys are zero;
  coefficient lists are ascending-degree.  One walker reads a segment's
  terms: each term once, then all of the segment's coefficient lists as
  one stack that fills its coefficient array, one row per list; trailing
  zeros are dropped, and entries past ``MAX_POLY_DEGREE`` must be zero and
  are dropped before that array is built.  A parse error names the first
  bad field.  An ``II`` component is legal (it only shifts the global
  phase) but parsing one emits a warning.
* ``chromlc-gates`` -- gate schedules, version 3: a ``terms`` table of
  the distinct pair terms H, 16 Pauli coefficients each in
  ``PAULI_LABELS`` order, written once in the order of first use, and
  steps whose every gate is its pair, its row of the table and its
  duration tau: its generator is A = tau * H and its unitary exp(-i*A).
  No angle is stored: the reader only parses, and :meth:`Gate.from_terms`
  derives every unitary and angle by one eigensolve per row of the table
  and ``compile``'s own gate formula, so an angle cannot disagree with its
  unitary.  Versions 1 (each unitary as 32 floats and its angle) and 2
  (each generator as 16 floats) are not read.
* ``chromlc-product`` -- product states (read only): two ``[re, im]``
  amplitudes per qubit; their parse errors name the file.

Schedule and product documents are version 1.

Serialization is canonical (fixed key order, shortest round-trip float
rendering), so serialize(parse(text)) reproduces canonical documents and
parse(serialize(obj)) reproduces schedules and gate schedules exactly,
down to the bits of every unitary and angle.  Both document types are
written compact, as
``json.dumps(doc, separators=(",", ":")) + "\n"`` writes them;
``python -m json.tool`` pretty-prints them.  The readers take any layout.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .compiler import Gate, GateSchedule, Step
from .errors import BadParams, ParseError, SchemaVersionMismatch, TooLarge
from .hamiltonian import MAX_POLY_DEGREE, PAULI_LABELS, HamiltonianSchedule, Segment

SCHEDULE_FORMAT = "chromlc-schedule"
GATES_FORMAT = "chromlc-gates"
PRODUCT_FORMAT = "chromlc-product"
FORMAT_VERSIONS = {SCHEDULE_FORMAT: 1, GATES_FORMAT: 3, PRODUCT_FORMAT: 1}
_PAULI_ROWS = {label: row for row, label in enumerate(PAULI_LABELS)}  # Pauli key -> its row of a term's tracks

__all__ = [
    "GATES_FORMAT",
    "SCHEDULE_FORMAT",
    "dumps_gates",
    "dumps_schedule",
    "load_document",
    "load_gates",
    "load_product_state",
    "load_schedule",
    "loads_gates",
    "loads_schedule",
]


# one layout for every document: the standard library's C encoder, no whitespace;
# the documents are built here and hold no cycles, so none is looked for
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _decode(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits; deep nesting
        raise ParseError(f"not a readable JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    return doc


def _check_header(doc: dict, expected_format: str):
    fmt = doc.get("format")
    if fmt != expected_format:
        raise SchemaVersionMismatch(f"format: expected {expected_format!r}, got {fmt!r}")
    version, expected = doc.get("version"), FORMAT_VERSIONS[expected_format]
    if type(version) is not int or version != expected:  # not true, 1.0 or "1"
        raise SchemaVersionMismatch(f"version: expected {expected}, got {version!r}")


def _int_field(obj, key, where):
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _number(value, where) -> float:
    """A JSON number as a float; a ``ParseError`` at ``where`` for anything else."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{where}: number too large for a float") from None


def _floats(value, shape, where, what) -> np.ndarray:
    """Nested lists of JSON numbers of ``shape`` as a float array; a ``ParseError``
    at ``where`` expecting ``what`` for another shape or an entry that is no number."""
    array = np.array(value, dtype=object)
    if array.shape != shape or not set(map(type, array.flat)) <= {int, float}:
        raise ParseError(f"{where}: expected {what}")
    try:
        return array.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{where}: number too large for a float") from None


def _list_field(obj, key, where):
    value = obj.get(key)
    if not isinstance(value, list):
        raise ParseError(f"{where}.{key}: expected a list")
    return value


def _pair_field(obj, where):
    pair = obj.get("pair")
    if not isinstance(pair, list) or len(pair) != 2 or not set(map(type, pair)) <= {int}:
        raise ParseError(f"{where}.pair: expected [k, l] with integer entries")
    return tuple(pair)


# -- Hamiltonian schedules ---------------------------------------------------


def dumps_schedule(s: HamiltonianSchedule) -> str:
    segments = []
    for seg in s.segments:
        # each row's length up to its last nonzero coefficient, 0 for an all-zero row
        lengths = np.where(seg.tracks != 0, np.arange(1, seg.tracks.shape[-1] + 1), 0).max(axis=-1)
        terms = []
        for (k, l), rows, widths in zip(seg.pairs, seg.tracks, lengths.tolist()):
            coeffs = {label: row[:w] for label, row, w in zip(PAULI_LABELS, rows.tolist(), widths) if w}
            terms.append({"pair": [k, l], "coeffs": coeffs})
        segments.append({"t_start": seg.t_start, "t_end": seg.t_end, "terms": terms})
    doc = {
        "format": SCHEDULE_FORMAT,
        "version": FORMAT_VERSIONS[SCHEDULE_FORMAT],
        "n_qubits": s.n_qubits,
        "segments": segments,
    }
    return _compact(doc) + "\n"


def loads_schedule(text: str) -> HamiltonianSchedule:
    return _schedule_from_doc(_decode(text))


def _schedule_from_doc(doc: dict) -> HamiltonianSchedule:
    _check_header(doc, SCHEDULE_FORMAT)
    n_qubits = _int_field(doc, "n_qubits", "document")
    raw_segments = _list_field(doc, "segments", "document")
    if not raw_segments:
        raise ParseError("schedule must cover [0,T]: segments list is empty")
    segments = []
    for i, raw_seg in enumerate(raw_segments):
        where = f"segments[{i}]"
        if not isinstance(raw_seg, dict):
            raise ParseError(f"{where}: expected an object")
        t_start = _number(raw_seg.get("t_start"), f"{where}.t_start")
        t_end = _number(raw_seg.get("t_end"), f"{where}.t_end")
        raw_terms = _list_field(raw_seg, "terms", where)
        pairs, tracks = _segment_terms(raw_terms, where)
        for j in np.flatnonzero(tracks[:, 0].any(axis=-1)).tolist():
            warnings.warn(
                f"{where}.terms[{j}]: II component only shifts the global phase; "
                "it still counts toward the interaction norm",
                stacklevel=3,  # the caller of loads_schedule, load_schedule or load_document
            )
        try:
            segments.append(Segment(t_start, t_end, tuple(pairs), tracks))
        except BadParams as exc:
            raise ParseError(f"{where}: {exc}") from None
    try:
        return HamiltonianSchedule(n_qubits, tuple(segments))
    except BadParams as exc:
        raise ParseError(str(exc)) from None


def _segment_terms(raw_terms: list, where: str):
    """The pairs and the ``(terms, 16, width)`` coefficient array of the
    segment at ``where``; a ``ParseError`` names the first field that breaks
    a rule.

    Each term is read once.  Then every coefficient list of the segment is
    type-checked and converted as one stack and scattered into the array by
    one assignment; only when the stack holds an entry that is no number,
    or a nonzero one past degree ``MAX_POLY_DEGREE``, are the lists walked
    again, to name the first such list.  Entries past that degree are
    dropped before the array is built, and entries past a list's last
    nonzero one are stored as 0.0.
    """
    pairs, rows, lists = [], [], []
    for j, raw_term in enumerate(raw_terms):
        if type(raw_term) is not dict:
            raise ParseError(f"{where}.terms[{j}]: expected an object")
        pair, raw_coeffs = raw_term.get("pair"), raw_term.get("coeffs")
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
            raise ParseError(f"{where}.terms[{j}].pair: expected [k, l] with integer entries")
        k, l = pair
        if not 0 <= k < l:
            raise ParseError(f"{where}.terms[{j}].pair: indices must satisfy 0 <= k < l, got [{k}, {l}]")
        if type(raw_coeffs) is not dict:
            raise ParseError(f"{where}.terms[{j}].coeffs: expected an object of Pauli keys")
        for label, coeff_list in raw_coeffs.items():
            row = _PAULI_ROWS.get(label)
            if row is None:
                raise ParseError(
                    f"{where}.terms[{j}].coeffs: unknown Pauli key {label!r}; keys are two letters over I, X, Y, Z"
                )
            if type(coeff_list) is not list:
                raise ParseError(f"{where}.terms[{j}].coeffs.{label}: expected a list of numbers")
            rows.append(16 * j + row)
            lists.append(coeff_list)
        pairs.append((k, l))
    lengths = np.array([len(coeff_list) for coeff_list in lists], dtype=np.intp)
    numbers = [c for coeff_list in lists for c in coeff_list]
    values = None
    if set(map(type, numbers)) <= {int, float}:
        try:
            values = np.array(numbers, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
    rows = np.repeat(np.array(rows, dtype=np.intp), lengths)
    columns = np.arange(len(numbers)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    width = int(lengths.max(initial=1))
    if values is not None and width > MAX_POLY_DEGREE + 1:  # entries past the top degree must be zero
        kept = columns <= MAX_POLY_DEGREE
        values = None if values[~kept].any() else values[kept]
        rows, columns, width = rows[kept], columns[kept], MAX_POLY_DEGREE + 1
    if values is None:  # name the first list with an entry that is no number or a nonzero one too high
        for j, raw_term in enumerate(raw_terms):
            for label, coeff_list in raw_term["coeffs"].items():
                field = f"{where}.terms[{j}].coeffs.{label}"
                if any([_number(c, field) for c in coeff_list][MAX_POLY_DEGREE + 1 :]):
                    raise ParseError(f"{field}: polynomial degree exceeds {MAX_POLY_DEGREE}")
    tracks = np.zeros((16 * len(pairs), width))
    tracks[rows, columns] = values
    ends = np.where(tracks != 0.0, np.arange(1, width + 1), 0).max(axis=-1)
    tracks[np.arange(width) >= ends[:, None]] = 0.0
    return pairs, tracks.reshape(len(pairs), 16, width)


# -- gate schedules ----------------------------------------------------------


def dumps_gates(g: GateSchedule) -> str:
    """The bytes of ``json.dumps(doc, separators=(",", ":")) + "\\n"`` for the gate document.

    Each distinct term (by value) enters the ``terms`` table once, in the
    order of first use, and each gate names its row.  A step object that
    recurs (``compile`` repeats a constant segment's steps) is encoded once
    per call and its text reused; the table and the steps' texts follow a
    fixed header.  Terms and durations are finite, so no NaN or Infinity
    arises: ``compile`` builds them from finite terms and angles, and the
    reader refuses non-finite ones.
    """
    rows = {}  # a term's bytes -> its row of the table
    texts = {}  # id(step) -> its text; g holds every step, so no id is reused during the call
    steps = []
    for step in g.steps:
        text = texts.get(id(step))
        if text is None:
            gates = [
                {"pair": gate.pair, "term": rows.setdefault(gate.term.tobytes(), len(rows)), "duration": gate.duration}
                for gate in step.gates
            ]
            text = texts[id(step)] = _compact({"gates": gates})
        steps.append(text)
    terms = _compact(np.frombuffer(b"".join(rows), dtype=float).reshape(-1, 16).tolist())
    version = FORMAT_VERSIONS[GATES_FORMAT]
    header = f'{{"format":"{GATES_FORMAT}","version":{version},"n_qubits":{g.n_qubits:d},"terms":{terms},"steps":['
    return header + ",".join(steps) + "]}\n"


def loads_gates(text: str) -> GateSchedule:
    return _gates_from_doc(_decode(text))


def _gates_from_doc(doc: dict) -> GateSchedule:
    """The gate schedule of a version-3 document; a ``ParseError`` names the
    first field that breaks a rule.

    The ``terms`` table is checked row by row for its type and length and
    converted as one stack.  Then each gate is read once: its pair, its
    row of the table and its duration; the absolute values of the
    coefficients of each generator, its duration times its row, must sum
    within the float range.  Last, :meth:`Gate.from_terms` refuses a row
    whose matrix or norm is beyond that range, as a ``ParseError`` of the
    same text, and builds the gates by one eigensolve per row.
    """
    _check_header(doc, GATES_FORMAT)
    n_qubits = _int_field(doc, "n_qubits", "document")
    table = _term_table(_list_field(doc, "terms", "document"))
    pairs, rows, durations, ends = [], [], [], []  # each gate's pair, row and duration; each step's end
    for i, raw_step in enumerate(_list_field(doc, "steps", "document")):
        where = f"steps[{i}]"
        if not isinstance(raw_step, dict):
            raise ParseError(f"{where}: expected an object")
        for j, raw_gate in enumerate(_list_field(raw_step, "gates", where)):
            gwhere = f"{where}.gates[{j}]"
            if not isinstance(raw_gate, dict):
                raise ParseError(f"{gwhere}: expected an object")
            k, l = _pair_field(raw_gate, gwhere)
            if not 0 <= k < l:
                raise ParseError(f"{gwhere}.pair: indices must satisfy 0 <= k < l, got [{k}, {l}]")
            if l >= n_qubits:
                raise ParseError(f"{gwhere}.pair: [{k}, {l}] exceeds the register of {n_qubits} qubits")
            row = raw_gate.get("term")
            if type(row) is not int or not 0 <= row < len(table):
                raise ParseError(f"{gwhere}.term: expected an integer in [0, {len(table)}), got {row!r}")
            duration = _number(raw_gate.get("duration"), f"{gwhere}.duration")
            if not 0.0 <= duration < math.inf:
                raise ParseError(f"{gwhere}.duration: expected a finite number >= 0, got {duration!r}")
            pairs.append((k, l))
            rows.append(row)
            durations.append(duration)
        ends.append(len(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = np.isfinite(np.abs(np.array(durations)[:, None] * table[rows]).sum(axis=1))
    if not bounded.all():
        gate = int(np.argmin(bounded))
        i = int(np.searchsorted(ends, gate, side="right"))  # the step that holds the gate
        raise ParseError(
            f"steps[{i}].gates[{gate - ([0] + ends)[i]}].duration: the generator, duration times term, "
            "must have coefficients whose absolute values sum within the float range"
        )
    try:
        gates = Gate.from_terms(pairs, table, rows, durations)
    except TooLarge as exc:
        raise ParseError(str(exc)) from None
    steps = []
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        try:
            steps.append(Step(tuple(gates[start:end])))
        except BadParams as exc:
            raise ParseError(f"steps[{i}]: {exc}") from None
    try:
        return GateSchedule(n_qubits, tuple(steps))
    except BadParams as exc:
        raise ParseError(str(exc)) from None


def _term_table(raw_terms: list) -> np.ndarray:
    """The ``(rows, 16)`` float array of a gate document's ``terms``; a
    ``ParseError`` names the first row that is no list of 16 finite numbers.
    The rows are converted as one stack, walked again only when an integer
    in it overflows a float, to name its row."""
    for i, row in enumerate(raw_terms):
        if type(row) is not list or len(row) != 16 or not set(map(type, row)) <= {int, float}:
            raise ParseError(f"terms[{i}]: expected a list of 16 numbers")
    try:
        table = np.array(raw_terms, dtype=float).reshape(-1, 16)
    except OverflowError:  # an integer beyond the float range: name its row
        for i, row in enumerate(raw_terms):
            _floats(row, (16,), f"terms[{i}]", "a list of 16 numbers")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError(f"terms[{int(np.argmin(finite))}]: expected a list of 16 finite numbers")
    return table


# -- file helpers ------------------------------------------------------------


def _read_document(path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; a ``ParseError`` naming the
    path for bytes that are not UTF-8 or text that is not such an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _decode(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_schedule(path) -> HamiltonianSchedule:
    return _schedule_from_doc(_read_document(path))


def load_gates(path) -> GateSchedule:
    return _gates_from_doc(_read_document(path))


def load_document(path):
    """Load either document type, dispatching on the ``format`` field."""
    doc = _read_document(path)
    fmt = doc.get("format")
    if fmt == SCHEDULE_FORMAT:
        return _schedule_from_doc(doc)
    if fmt == GATES_FORMAT:
        return _gates_from_doc(doc)
    raise SchemaVersionMismatch(f"format: unknown document format {fmt!r}")


def load_product_state(path, n_qubits: int) -> np.ndarray:
    """The ``chromlc-product`` state at ``path``: its ``n_qubits`` per-qubit
    vectors as an (n_qubits, 2) array, as written; ``simulator.product_state``
    builds the state.  Every ``ParseError`` names the path."""
    doc = _read_document(path)
    try:
        _check_header(doc, PRODUCT_FORMAT)
        qubits = doc.get("qubits")
        if not isinstance(qubits, list) or len(qubits) != n_qubits:
            raise ParseError(f"expected {n_qubits} per-qubit states")
        what = "two [re, im] pairs of finite numbers, not both zero"
        vectors = []
        for i, q in enumerate(qubits):
            vector = _floats(q, (2, 2), f"qubits[{i}]", what).view(np.complex128)[:, 0]
            if not (np.all(np.isfinite(vector)) and vector.any()):
                raise ParseError(f"qubits[{i}]: expected {what}")
            with np.errstate(all="ignore"):  # the squared norm may overflow or underflow
                unit = vector / np.linalg.norm(vector)
            if not abs(np.linalg.norm(unit) - 1.0) <= 1e-12:
                raise ParseError(f"qubits[{i}]: amplitudes too large or too small to normalise to norm 1")
            vectors.append(vector)
    except ParseError as exc:  # SchemaVersionMismatch keeps its type
        raise type(exc)(f"{path}: {exc}") from None
    return np.reshape(vectors, (n_qubits, 2))
