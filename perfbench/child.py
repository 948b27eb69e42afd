"""One chromlc process of a benchmark run: import the package, write the
workload's input documents, and optionally run the workload's command once.

Usage: python3 perfbench/child.py '<json spec>'
The spec holds ``src`` (the directory holding the package), ``generate`` (the
argv of the ``generate`` command, or null), ``op`` (an argv list or null) and
``stdout`` (where to write the command's standard output).  Prints one JSON
line: the set-up time (import plus generate), the speed gauge's reading
during set-up, the command's exit code and the peak resident memory of the
process.

The gauge of ``calibrate.py`` ticks every 10 ms during set-up, so that the
shortest set-up (about 0.13 s) still gets a dozen ticks. ``setup_net_s`` is
the set-up time minus the ticks' wall time. Loading the gauge imports neither
numpy nor chromlc, so their imports stay inside the timed set-up.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

import calibrate

SETUP_TICK_S = 0.01


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def main():
    spec = json.loads(sys.argv[1])
    rc = 0
    with calibrate.Gauge(SETUP_TICK_S) as gauge:
        start = time.perf_counter()
        sys.path.insert(0, spec["src"])
        from chromlc import cli

        if spec["generate"] is not None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(spec["generate"])
        setup = time.perf_counter() - start
        net = setup - sum(gauge.wall)
        if not gauge.cpu:  # a set-up shorter than one tick interval
            signal.raise_signal(signal.SIGALRM)
    if rc != 0:
        print(f"set-up command failed: {spec['generate']}", file=sys.stderr)
        return 1
    result = {"setup_s": setup, "setup_net_s": net, "gauge_s": gauge.reading(), "setup_rss_mb": peak_rss_mb()}
    if spec["op"] is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["op_rc"] = cli.main(spec["op"])
        with open(spec["stdout"], "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        result["peak_rss_mb"] = peak_rss_mb()
        result["op_stderr"] = err.getvalue()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
