#!/usr/bin/env python3
"""Benchmark of the chromlc command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--instance-seed N]

Each workload drives one ``chromlc`` command in process through
``chromlc.cli.main(argv)`` in a closed loop with one client: the next command
starts when the previous one returns, while the median command so far still
fits in ``--seconds`` (and at least three commands run).  Inputs come from the ``generate`` command.

Seeds.  ``--instance-seed`` picks the generated instance (default: the
workload's ``instance_seed`` below).  ``--seed`` varies the input without
changing the work it takes: it scales every interaction norm by a factor in
[0.9, 1.1] (``generate --coupling``; ``--alpha`` for the variance study).
Thresholds, levels, colorings and step counts are invariant under that
scaling, so the figures of different seeds are comparable; without
``--seed`` the factor is 1 and the commands are the ones listed below.

``--trace 0`` reports the end-to-end metrics: ``op_rel.p50`` (median over
commands of the command's time divided by the reading of the speed gauge of
``calibrate.py`` taken during it), ``setup_s`` (median over five fresh
processes of importing chromlc and generating the inputs, in seconds at the
gauge's reference speed, ``calibrate.REFERENCE_S``) and ``peak_mb``
(peak resident memory of a process that sets up and runs one command, never
one that is timed).  ``--trace 1`` alternates untraced and traced commands
and reports the per-layer metrics of ``tracer.py`` per traced command.

Every command's output is checked against references that chromlc did not
produce (``reference.py``, or values recorded in ``references.json``); a
command that exits non-zero or fails its check counts as failed.  The last
line of standard output is the result JSON; the line before it holds the
details (seeds, samples, checks, environment), also written with the spans
of a traced run under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_PROCESSES = 5
MIN_COMMANDS = 3
EPSILON = "0.05"
SAMPLES = "8"
TRIALS = "20"
ALPHA = 0.25
CHECK_TOL = 1e-9

# Why each workload and instance is here, and the holdout instance seed kept
# out of tuning, is written up in perfbench/README.md.
WORKLOADS = {
    "compile_pwc": {
        "instance_seed": 7,
        "holdout_seed": 11,
        "generate": ["random_graph", "--n", "8", "--p", "0.5", "--segments", "4"],
        "op": ["compile", "{doc}", "--epsilon", EPSILON, "-o", "{out}"],
    },
    "compile_tv": {
        "instance_seed": 3,
        "holdout_seed": 11,
        "generate": ["random_time_varying", "--n", "6", "--p", "0.6"],
        "op": ["compile", "{doc}", "--epsilon", EPSILON, "-o", "{out}"],
    },
    "index_dense": {
        "instance_seed": 3,
        "holdout_seed": 11,
        "generate": ["random_time_varying", "--n", "12", "--p", "0.7"],
        "op": ["index", "{doc}", "--samples", SAMPLES],
    },
    "verify_variance": {
        "instance_seed": 1,
        "holdout_seed": 11,
        "generate": None,
        "op": ["verify", "variance", "--n", "8", "--alpha", "{alpha}", "--trials", TRIALS, "--seed", "{instance}"],
    },
}

# Per-layer metrics.  "_s" is self time (tracer.self_times), "_incl_s" the
# summed span durations, "_calls" a span count; all are per traced command.
GENERATORS = ("generate", "random_graph", "random_time_varying", "chain", "disjoint_pairs", "complete_mean_field")
SELF_METRICS = {
    "serialization.load_s": ("serialization", ("load_schedule", "loads_schedule", "load_gates", "loads_gates", "load_document")),
    "serialization.dump_s": ("serialization", ("dumps_schedule", "dumps_gates", "save_schedule", "save_gates")),
    "compiler.compile_s": ("compiler", ("compile",)),
    "compiler.from_unitary_s": ("compiler", ("Gate.from_unitary",)),
    "hamiltonian.index_s": ("hamiltonian", ("integrated_chromatic_index",)),
    "hamiltonian.graph_s": ("hamiltonian", ("interaction_graph",)),
    "hamiltonian.generate_s": ("hamiltonian", GENERATORS),
    "graphs.decompose_s": ("graphs", ("level_decompose",)),
    "graphs.exact_s": ("graphs", ("chromatic_index_exact",)),
    "graphs.vizing_s": ("graphs", ("edge_color_vizing",)),
    "linalg.eig_s": ("linalg", ("hermitian_eig",)),
    "linalg.expm_i_s": ("linalg", ("expm_i",)),
    "linalg.unitary_angle_s": ("linalg", ("unitary_angle",)),
    "linalg.operator_norm_s": ("linalg", ("operator_norm",)),
    "simulator.evolve_s": ("simulator", ("evolve_continuous",)),
    "simulator.run_schedule_s": ("simulator", ("run_schedule",)),
    "simulator.variance_s": ("simulator", ("variance", "mixed_variance")),
    "analysis.sweep_s": ("analysis", ("variance_bound_experiment",)),
}
INCL_METRICS = {
    "compiler.from_unitary_incl_s": ("compiler", ("Gate.from_unitary",)),
    "hamiltonian.index_incl_s": ("hamiltonian", ("integrated_chromatic_index",)),
    "graphs.decompose_incl_s": ("graphs", ("level_decompose",)),
    "linalg.eig_incl_s": ("linalg", ("hermitian_eig",)),
    "linalg.expm_i_incl_s": ("linalg", ("expm_i",)),
    "linalg.unitary_angle_incl_s": ("linalg", ("unitary_angle",)),
    "linalg.operator_norm_incl_s": ("linalg", ("operator_norm",)),
    "simulator.evolve_incl_s": ("simulator", ("evolve_continuous",)),
}
CALL_METRICS = {
    "compiler.gates_built": ("compiler", ("Gate.from_unitary",)),
    "hamiltonian.w_evals": ("hamiltonian", ("weighted_chromatic_index",)),
    "hamiltonian.graph_calls": ("hamiltonian", ("interaction_graph",)),
    "graphs.decompose_calls": ("graphs", ("level_decompose",)),
    "linalg.eig_calls": ("linalg", ("hermitian_eig",)),
    "linalg.expm_i_calls": ("linalg", ("expm_i",)),
    "linalg.unitary_angle_calls": ("linalg", ("unitary_angle",)),
    "linalg.operator_norm_calls": ("linalg", ("operator_norm",)),
    "simulator.evolve_calls": ("simulator", ("evolve_continuous",)),
}
# Counters read from return values: traced name -> f(result), kept as the span's info.
HOOKS = {
    "dumps_schedule": len,  # canonical JSON is ASCII, so characters are bytes
    "dumps_gates": len,
    "level_decompose": lambda d: (len(d.levels), sum(1 for lv in d.levels if lv.exact)),
}


# -- running commands ----------------------------------------------------------


def run_command(cli, argv):
    """(exit code, seconds, stdout, stderr); an exception counts as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed command, reported below
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def scale_for(seed):
    return 1.0 if seed is None else round(random.Random(seed).uniform(0.9, 1.1), 6)


def fill(template, **values):
    return [str(values[a[1:-1]]) if a.startswith("{") else a for a in template]


def generate_argv(spec, instance, scale, doc):
    if spec["generate"] is None:
        return None
    return ["generate", *spec["generate"], "--seed", str(instance), "--coupling", repr(scale), "-o", str(doc)]


def spawn_child(generate, op, stdout):
    spec = {"src": str(SRC), "generate": generate, "op": op, "stdout": str(stdout)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(text_or_path):
    if isinstance(text_or_path, Path):
        return hashlib.sha256(text_or_path.read_bytes()).hexdigest()
    return hashlib.sha256(text_or_path.encode()).hexdigest()


# -- output checks ---------------------------------------------------------------


def check_compile(path, ref):
    """Problems with a gate file, and the figures measured from it."""
    from chromlc import serialization  # load_gates re-validates unitarity and angles

    try:
        g = serialization.load_gates(str(path))
    except Exception as exc:  # noqa: BLE001 - any load error is a failed check
        return [f"gate file does not load: {exc}"], {}
    steps = len(g.steps)
    gates = sum(len(step.gates) for step in g.steps)
    depth = sum(max(gate.angle for gate in step.gates) for step in g.steps)
    psi = ref["psi0"]
    for step in g.steps:
        for gate in step.gates:
            psi = reference.apply_pair(gate.unitary, psi, g.n_qubits, *gate.pair)
    figures = {
        "steps": steps,
        "gates": gates,
        "weighted_depth": depth,
        "integral": ref["integral"],
        "depth_gap": abs(depth - ref["integral"]),
        "state_err": float(np.linalg.norm(psi - ref["psi_exact"])),
        "state_err_bound": ref["state_err_bound"],
    }
    problems = []
    if (steps, gates) != (ref["steps"], ref["gates"]):
        problems.append(f"{steps} steps / {gates} gates, exact coloring gives {ref['steps']} / {ref['gates']}")
    else:
        eye = np.eye(4)
        start = 0
        for index, (n_steps, _, expected) in enumerate(ref["subintervals"]):
            products = {}
            for step in g.steps[start : start + n_steps]:
                for gate in step.gates:
                    products[gate.pair] = gate.unitary @ products.get(gate.pair, eye)
            start += n_steps
            if set(products) != set(expected):
                problems.append(f"subinterval {index}: gates act on {sorted(products)}, not {sorted(expected)}")
                break
            worst = max(float(np.max(np.abs(products[p] - expected[p]))) for p in expected)
            if worst > CHECK_TOL:
                problems.append(f"subinterval {index}: edge gates miss exp(-i d H_e) by {worst:.3e}")
                break
    if abs(depth - ref["riemann_depth"]) > CHECK_TOL:
        problems.append(f"weighted depth {depth!r} is not the midpoint sum of W {ref['riemann_depth']!r}")
    if ref["piecewise_constant"] and figures["depth_gap"] > CHECK_TOL:
        problems.append(f"weighted depth {depth!r} differs from I {ref['integral']!r} (C01)")
    if figures["state_err"] > ref["state_err_bound"]:
        problems.append(f"state error {figures['state_err']:.3e} exceeds its bound {ref['state_err_bound']:.3e}")
    return problems, figures


def check_index(stdout, expected_integral, samples):
    lines = stdout.splitlines()
    try:
        value = float(lines[0].split("=", 1)[1].split("(", 1)[0])
    except (IndexError, ValueError):
        return [f"no 'I = ...' line in index output: {stdout[:80]!r}"], {}
    figures = {"integral": value, "integral_expected": expected_integral, "samples": len(lines) - 2}
    problems = []
    if abs(value - expected_integral) > CHECK_TOL:
        problems.append(f"I = {value!r}, expected {expected_integral!r}")
    if lines[1:2] != ["t,W"] or len(lines) - 2 != samples:
        problems.append(f"expected a t,W table of {samples} samples")
    return problems, figures


def check_variance(stdout, trials):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    problems = []
    if len(rows) != trials:
        problems.append(f"{len(rows)} rows, expected {trials}")
    slacks = [float(r["slack"]) for r in rows if r.get("slack") not in (None, "")]
    if len(slacks) != len(rows) or any(s < 0 for s in slacks):
        problems.append("a trial has no slack or a negative slack")
    return problems, {"trials": len(rows), "min_slack": min(slacks, default=float("nan"))}


# -- metrics ---------------------------------------------------------------------


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or (None, None) when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(samples)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the build record is optional
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CHROMLC_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "platform": platform.platform(),
    }


def layer_figures(spans):
    """Per-command figures of one traced command's spans."""
    selfs = tracing.self_times(spans)
    per_fn = defaultdict(lambda: [0.0, 0.0, 0])
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    bytes_out = levels = exact = 0
    for span in spans:
        acc = per_fn[(span.layer, span.name)]
        acc[0] += selfs[span]
        acc[1] += span.end - span.start
        acc[2] += 1
        layer_self[span.layer] += selfs[span]
        if span.name in ("dumps_schedule", "dumps_gates") and span.info is not None:
            bytes_out += span.info
        elif span.name == "level_decompose" and span.info is not None:
            levels += span.info[0]
            exact += span.info[1]

    def total(layer, names, field):
        return sum(per_fn[(layer, n)][field] for n in names if (layer, n) in per_fn)

    out = {}
    for metric, (layer, names) in SELF_METRICS.items():
        out[metric] = total(layer, names, 0)
    for metric, (layer, names) in INCL_METRICS.items():
        out[metric] = total(layer, names, 1)
    for metric, (layer, names) in CALL_METRICS.items():
        out[metric] = total(layer, names, 2)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["serialization.bytes_out"] = bytes_out
    out["graphs.levels"] = levels
    out["graphs.exact_ratio"] = exact / levels if levels else 1.0
    out["trace.spans"] = len(spans)
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name == "serialization.bytes_out":
        return "bytes"
    return "ratio" if name == "graphs.exact_ratio" else "count"


def absent_names(traced):
    """Names the metrics refer to that are no longer in the package; they read 0."""
    wanted = {("cli", "main")}
    for table in (SELF_METRICS, INCL_METRICS, CALL_METRICS):
        for layer, names in table.values():
            wanted.update((layer, n) for n in names)
    return sorted(f"{layer}.{name}" for layer, name in wanted - traced)


# -- one benchmark run -------------------------------------------------------------


def run(args, work):
    spec = WORKLOADS[args.workload]
    instance = spec["instance_seed"] if args.instance_seed is None else args.instance_seed
    scale = scale_for(args.seed)
    doc = work / "input.json"
    out_path = work / "output.gates"
    argv = fill(spec["op"], doc=doc, out=out_path, alpha=repr(ALPHA * scale), instance=instance)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seed": instance,
        "holdout_seed": spec["holdout_seed"],
        "scale": scale,
        "command": ["chromlc", *argv],
        "environment": environment(),
    }
    if args.workload == "index_dense":
        recorded = json.loads((HERE / "references.json").read_text())["index_dense"]
        if str(instance) not in recorded:
            raise SystemExit(f"no recorded I for index_dense instance seed {instance} in references.json")
        expected_integral = scale * recorded[str(instance)]
    metrics = {}

    if not args.trace:
        # Set-up and peak memory in fresh processes, before and apart from the timed loop.
        children = []
        for i in range(SETUP_PROCESSES):
            last = i == SETUP_PROCESSES - 1
            child_doc = work / f"input{i}.json"
            child_argv = fill(spec["op"], doc=child_doc, out=work / "peak.gates",
                              alpha=repr(ALPHA * scale), instance=instance)
            children.append(spawn_child(generate_argv(spec, instance, scale, child_doc),
                                        child_argv if last else None, work / "peak.stdout"))
        if spec["generate"] is not None:
            docs = {digest(work / f"input{i}.json") for i in range(SETUP_PROCESSES)}
            if len(docs) != 1:
                raise RuntimeError("generate wrote different documents for the same seed")
            shutil.copyfile(work / "input0.json", doc)
        # Set-up in seconds at the gauge's reference speed (calibrate.REFERENCE_S).
        setup = [c["setup_net_s"] * calibrate.REFERENCE_S / c["gauge_s"] for c in children]
        detail["setup_samples_s"] = setup
        detail["setup_raw_samples_s"] = [c["setup_s"] for c in children]
        detail["setup_gauge_samples_s"] = [c["gauge_s"] for c in children]
        detail["peak_process"] = {k: children[-1][k] for k in ("setup_rss_mb", "peak_rss_mb", "op_rc")}
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_mb"] = (children[-1]["peak_rss_mb"], "MB")

    from chromlc import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(HOOKS)
        tracer.install()
        generate = generate_argv(spec, instance, scale, doc)
        if generate is not None:
            rc, _, _, err = run_command(cli, generate)
            if rc != 0:
                raise RuntimeError(f"set-up command failed: {err}")
        tracer.uninstall()
        setup_spans = tracer.take()

    ref = None
    if spec["op"][0] == "compile":
        ref = reference.compile_reference(json.loads(doc.read_text()), float(EPSILON))

    # The timed loop.  Untraced commands run under the speed gauge; with
    # tracing, untraced and traced commands alternate.
    records = []
    first_output = None
    traced_spans = []
    gauge = calibrate.Gauge()
    start = time.perf_counter()
    # A command starts only if the median command so far still fits in the window.
    min_commands = 2 * MIN_COMMANDS if args.trace else MIN_COMMANDS
    while len(records) < min_commands or (
        time.perf_counter() - start + statistics.median(r["seconds"] for r in records) <= args.seconds
    ):
        traced = bool(args.trace) and len(records) % 2 == 1
        record = {"traced": traced}
        if traced:
            tracer.install()
            rc, seconds, stdout, stderr = run_command(cli, argv)
            tracer.uninstall()
            traced_spans.append(tracer.take())
        elif args.trace:
            rc, seconds, stdout, stderr = run_command(cli, argv)
        else:
            with gauge:
                rc, seconds, stdout, stderr = run_command(cli, argv)
                record["net_s"] = seconds - sum(gauge.wall)
                if not gauge.cpu:  # a command shorter than one gauge interval
                    signal.raise_signal(signal.SIGALRM)
            record["gauge_s"] = gauge.reading()
        record.update(rc=rc, seconds=seconds, error=stderr[-2000:] if rc != 0 else "")
        record["output"] = digest(out_path) if spec["op"][0] == "compile" and rc == 0 else digest(stdout)
        if first_output is None and rc == 0:
            first_output = (stdout, record["output"])
            if spec["op"][0] == "compile":
                shutil.copyfile(out_path, work / "first.gates")
        records.append(record)

    # Checks: the first successful output in full, every other output by identity with it.
    problems = []
    figures = {}
    if first_output is None:
        problems.append("no command succeeded")
    elif spec["op"][0] == "compile":
        problems, figures = check_compile(work / "first.gates", ref)
    elif spec["op"][0] == "index":
        problems, figures = check_index(first_output[0], expected_integral, int(SAMPLES))
    else:
        problems, figures = check_variance(first_output[0], int(TRIALS))
    outputs = [(r["rc"], r["output"], r["error"]) for r in records]
    if not args.trace:
        peak_output = work / ("peak.gates" if spec["op"][0] == "compile" else "peak.stdout")
        peak_rc = children[-1]["op_rc"]
        outputs.append((peak_rc, digest(peak_output) if peak_rc == 0 else None, children[-1]["op_stderr"][-2000:]))
    good = first_output[1] if first_output is not None and not problems else None
    failed = sum(1 for rc, out, _ in outputs if rc != 0 or out != good)
    detail["problems"] = problems
    detail["failures"] = [err for rc, _, err in outputs if rc != 0 and err]
    detail["checks"] = figures
    detail["fail_ratio"] = failed / len(outputs)

    untraced = [r for r in records if not r["traced"]]
    timed = [r["seconds"] for r in untraced]
    detail["op_samples_s"] = timed
    detail["op_s.p50"] = statistics.median(timed)
    detail["op_s.tail"] = dict(zip(("percentile", "value"), tail(timed)), samples=len(timed))

    if not args.trace:
        rel = [r["net_s"] / r["gauge_s"] for r in untraced]
        detail["op_net_samples_s"] = [r["net_s"] for r in untraced]
        detail["gauge_samples_s"] = [r["gauge_s"] for r in untraced]
        detail["op_rel_samples"] = rel
        metrics["op_rel.p50"] = (statistics.median(rel), "ratio")
    else:
        per_command = [layer_figures(spans) for spans in traced_spans]
        traced_times = [r["seconds"] for r in records if r["traced"]]
        roots = [spans[0] for spans in traced_spans]  # cli.main opens first
        sums = [sum(fig[f"{layer}.self_s"] for layer in tracing.LAYERS) for fig in per_command]
        gaps = [abs(total - (root.end - root.start)) for total, root in zip(sums, roots)]
        if max(gaps) > 1e-6:
            problems.append(f"layer self times miss the traced command time by {max(gaps):.3e} s")
        setup_generate = layer_figures(setup_spans)["hamiltonian.generate_s"] if setup_spans else 0.0
        for name in per_command[0]:
            value = statistics.fmean(fig[name] for fig in per_command)
            if name == "hamiltonian.generate_s":
                value += setup_generate
            metrics[name] = (value, unit_of(name))
        metrics["trace.op_s"] = (statistics.median(r.end - r.start for r in roots), "s")
        metrics["trace.overhead"] = (statistics.median(traced_times) / statistics.median(timed), "ratio")
        detail["trace"] = {
            "traced_commands": len(traced_spans),
            "self_time_gap_s": max(gaps),
            "absent": absent_names(tracer.traced),
        }
        write_spans(args, traced_spans, setup_spans)

    result = {
        "correct": not problems and failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def write_spans(args, traced_spans, setup_spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for phase, groups in (("setup", [setup_spans]), ("command", traced_spans)):
            for number, spans in enumerate(groups):
                ids = {span: i for i, span in enumerate(spans)}
                for span in spans:
                    fh.write(json.dumps([phase, number, ids[span], ids.get(span.parent), span.layer,
                                         span.name, span.thread, span.start, span.end]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="input variation seed (default: none)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None, help="generated instance (default: the workload's)")
    args = parser.parse_args(argv)
    if not (SRC / "chromlc" / "__init__.py").is_file():
        print(f"error: no chromlc package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        detail, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
