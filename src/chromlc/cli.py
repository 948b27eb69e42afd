"""Command-line frontend over the schedule file formats.

Machine-readable results go to stdout; diagnostics and progress go to
stderr.  Exit codes: 0 success, 1 verification failure (bound violated or
convergence ratios out of range), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, compiler, serialization, simulator
from .errors import ChromlcError, ParseError
from .hamiltonian import GENERATORS, HamiltonianSchedule, generate, integrated_chromatic_index


def _generate_arguments(p):
    # Defaults live in the generator signatures: a flag not given is not
    # passed on, and a flag the kind does not take is refused.
    optional = {"default": argparse.SUPPRESS}
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--t", dest="t_total", metavar="T", type=float, help="total time", **optional)
    p.add_argument("--coupling", type=float, help="pair norm", **optional)
    p.add_argument("--p", type=float, help="edge probability (random kinds)", **optional)
    p.add_argument("--segments", type=int, help="segment count (random_graph)", **optional)
    p.add_argument("--degree", type=int, help="polynomial degree (random_time_varying)", **optional)
    p.add_argument("--seed", type=int, help="random seed (random kinds)", **optional)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_generate)


def _index_arguments(p):
    p.add_argument("schedule")
    p.add_argument("--samples", type=int, default=64, help="samples per segment")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_index)


def _compile_arguments(p):
    p.add_argument("schedule")
    p.add_argument("--epsilon", type=float, required=True, help="subinterval length")
    p.add_argument("-o", "--output", help="gate file path (default stdout)")
    p.add_argument("--report", help="write compilation diagnostics to this JSON file")
    p.set_defaults(handler=_cmd_compile)


def _simulate_arguments(p):
    p.add_argument("input", help="schedule or gate document")
    p.add_argument("--state", default="basis:0", help="basis:K or a product-state file")
    p.add_argument("--observable", choices=("x", "y", "z"), default="z")
    p.add_argument("--tol", type=float, default=1e-10, help="integrator tolerance")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_simulate)


def _verify_arguments(p):
    vsub = p.add_subparsers(dest="study", required=True)

    v = vsub.add_parser("theorem1", help="compiled-unitary and weighted-depth convergence")
    v.add_argument("schedule")
    v.add_argument("--epsilons", type=_float_list, required=True, help="comma-separated, strictly decreasing")
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.set_defaults(handler=_cmd_verify_theorem1)

    v = vsub.add_parser("variance", help="mean-field variance bound sweep")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.set_defaults(handler=_cmd_verify_variance)


def _trotter_arguments(p):
    p.add_argument("schedule")
    p.add_argument("--m-list", type=_int_list, required=True, help="comma-separated slice counts")
    p.add_argument("--epsilons", type=_float_list, default=[], help="comma-separated compile epsilons")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_trotter)


# name: (help, adds the arguments and the handler), in the order of the top-level help
_COMMANDS = {
    "generate": ("write a schedule from a named generator", _generate_arguments),
    "index": ("print W(t) samples and the integrated index", _index_arguments),
    "compile": ("compile a schedule into gate steps", _compile_arguments),
    "simulate": ("run a gate or Hamiltonian schedule on a state", _simulate_arguments),
    "verify": ("run a verification study", _verify_arguments),
    "trotter": ("sequential baseline vs parallel compilation", _trotter_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The chromlc parser, with every subcommand or, given a command name, only that one.

    A one-command parser still names every command in its usage line, so
    it prints the same help, usage and error text for that command; only
    the full parser can report a missing or unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="chromlc",
        description="Compile pair-interaction Hamiltonian schedules into parallel "
        "two-qubit gate schedules and verify the chromatic-index accounting.",
    )
    listing = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _split_list(text: str, cast, what: str):
    try:
        return [cast(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None


def _float_list(text: str):
    return _split_list(text, float, "numbers")


def _int_list(text: str):
    return _split_list(text, int, "integers")


def _write_text(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(fmt: str, doc: dict, key: str, rows: list, head: str = "") -> str:
    """A command's result as text.  JSON is ``doc`` with ``rows`` under
    ``key``, last; CSV is ``head``, a line of the rows' keys and one line
    per row.  Every table has at least one row."""
    if fmt == "json":
        return json.dumps({**doc, key: rows}, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(head)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


def _write_rows(args, study: str, rows):
    """A study's rows on stdout; the JSON params are the parsed arguments
    but the command, the study, the format and the handler."""
    skip = ("command", "study", "format", "handler")
    params = {key: value for key, value in vars(args).items() if key not in skip}
    doc = {"study": study, "params": params}
    sys.stdout.write(_render(args.format, doc, "rows", [asdict(row) for row in rows]))


def _load_state(spec: str, n_qubits: int) -> simulator.StateVector:
    if not spec.startswith("basis:"):
        return serialization.load_product_state(spec, n_qubits)
    index = spec.split(":", 1)[1]
    try:
        index = int(index)
    except ValueError:
        raise ParseError(f"--state {spec}: basis index {index!r} is not an integer") from None
    return simulator.StateVector.basis(n_qubits, index)


def _cmd_generate(args) -> int:
    skip = ("command", "kind", "output", "handler")
    schedule = generate(args.kind, **{key: value for key, value in vars(args).items() if key not in skip})
    _write_text(serialization.dumps_schedule(schedule), args.output)
    if args.output:
        print(f"wrote {args.kind} schedule to {args.output}", file=sys.stderr)
    return 0


def _cmd_index(args) -> int:
    schedule = serialization.load_schedule(args.schedule)
    profile = integrated_chromatic_index(schedule, samples_per_segment=args.samples)
    doc = {
        "study": "index",
        "params": {"schedule": args.schedule, "samples": args.samples},
        "I": profile.integral,
        "error_estimate": profile.error_estimate,
    }
    samples = [{"t": float(t), "W": float(w)} for t, w in zip(profile.times, profile.values)]
    head = f"I = {profile.integral!r} (error estimate {profile.error_estimate!r})\n"
    sys.stdout.write(_render(args.format, doc, "samples", samples, head))
    return 0


def _cmd_compile(args) -> int:
    schedule = serialization.load_schedule(args.schedule)
    gates, report = compiler.compile(schedule, args.epsilon)
    outputs = [(serialization.dumps_gates(gates), args.output)]
    if args.report:
        doc = asdict(report)
        intervals = doc.pop("intervals")
        doc["source_integrated_index"] = integrated_chromatic_index(schedule).integral
        outputs.append((_render("json", doc, "intervals", intervals), args.report))
    written = []
    try:  # every text is built before the first write, and a failed write leaves no file behind
        for text, path in outputs:
            _write_text(text, path)
            if path:
                written.append(path)
    except OSError:
        for path in written:
            os.remove(path)
        raise
    print(
        f"compiled {report.n_steps} steps, weighted depth {report.weighted_depth!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    doc = serialization.load_document(args.input)
    psi = _load_state(args.state, doc.n_qubits)
    if isinstance(doc, HamiltonianSchedule):
        out = simulator.evolve_continuous(psi, doc, args.tol)
    else:
        out = simulator.run_schedule(psi, doc)
    obs = simulator.MeanFieldObservable.pauli(doc.n_qubits, args.observable)
    m1, m2 = simulator.moments(out, obs)
    amp = out.amplitudes
    probs = np.abs(amp) ** 2
    top = sorted(range(len(amp)), key=lambda i: (-probs[i], i))[:16]
    rows = [
        {
            "index": int(i),
            "bitstring": format(i, f"0{doc.n_qubits}b"),
            "re": float(amp[i].real),
            "im": float(amp[i].imag),
            "probability": float(probs[i]),
        }
        for i in top
    ]
    scalars = {
        "n_qubits": doc.n_qubits,
        "norm": out.norm(),
        "observable": args.observable,
        "expectation": m1,
        "variance": m2 - m1 * m1,
    }
    head = "".join(f"{key},{value}\n" for key, value in scalars.items())
    sys.stdout.write(_render(args.format, scalars, "amplitudes", rows, head))
    return 0


def _cmd_verify_theorem1(args) -> int:
    schedule = serialization.load_schedule(args.schedule)
    rows = analysis.convergence_study(schedule, args.epsilons, tol=args.tol)
    problems = analysis.check_convergence(rows)
    if schedule.is_piecewise_constant:
        for row in rows:
            if row.depth_gap > 1e-9:
                problems.append(
                    f"weighted depth misses the integrated index by {row.depth_gap:.3e} "
                    f"at eps {row.epsilon} on a piecewise-constant schedule"
                )
    _write_rows(args, "theorem1", rows)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("convergence check passed", file=sys.stderr)
    return 1 if problems else 0


def _cmd_verify_variance(args) -> int:
    records = analysis.variance_bound_experiment(
        args.n, args.alpha, args.trials, seed=args.seed, tol=args.tol
    )
    _write_rows(args, "variance", records)
    violations = [r for r in records if r.slack < 0]
    for record in violations:
        print(
            f"FAIL: trial {record.seed} variance {record.variance!r} exceeds bound {record.bound!r}",
            file=sys.stderr,
        )
    if not violations:
        print(f"all {len(records)} trials satisfy the bound", file=sys.stderr)
    return 1 if violations else 0


def _cmd_trotter(args) -> int:
    schedule = serialization.load_schedule(args.schedule)
    rows = analysis.trotter_comparison(schedule, args.m_list, args.epsilons, tol=args.tol)
    _write_rows(args, "trotter", rows)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h, --help, an unknown or a missing command get the full parser and its listing
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ChromlcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
