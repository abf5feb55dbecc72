"""Benchmark worker: runs kronrigid CLI ops sent one at a time on stdin.

    python3 perfbench/worker.py --src SRC [--setup-only]

Imports kronrigid.cli from SRC and builds its parser (the set-up time),
answers with one JSON line, then reads one JSON request per line:
{"cmd": "op", "id", "argv", "traced"} runs `cli.main(argv)` and answers with
its exit code, output and time; {"cmd": "finish"} answers with the process's
peak RSS and exits.  A traced op runs with tracing.py's wrappers installed
for that op only.  If any op was traced, "finish" also writes the spans to
the path in "spans" and times FieldCtx arithmetic.  Every answer carries
`calib_s`, the time of a fixed pure-Python loop run after the timed region,
and the answers to set-up and ops also `calib_before_s`, the time of the
same loop run right before it; from these the harness gauges the machine's
speed.  Ops run in this one process, one at a time, with no extra threads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing

CALIB_LOOPS = 100_000


def calibrate():
    """Seconds for a fixed integer loop that allocates no containers."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc = (acc + i * i) % 2147483647
    return time.perf_counter() - t0


def _send(proto, msg):
    proto.write(json.dumps({**msg, "calib_s": calibrate()}) + "\n")
    proto.flush()


def _run_op(cli, msg, tracer):
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    calib_before = calibrate()
    if msg["traced"]:
        restore = tracing.install(tracer)
        root = tracer.begin_op(msg["id"])
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(msg["argv"])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an uncaught error is an op outcome, not a worker crash
        exc = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if msg["traced"]:
        tracer.end_op(root)
        restore()
    return {"rc": rc, "exc": exc, "t": elapsed, "calib_before_s": calib_before,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    proto = sys.stdout
    src = Path(args.src).resolve()

    calib_before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    from kronrigid import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"kronrigid was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    _send(proto, {"setup_s": setup_s, "calib_before_s": calib_before})
    if args.setup_only:
        return 0

    tracer = tracing.Tracer()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "op":
            _send(proto, _run_op(cli, msg, tracer))
            continue
        reply = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer.spans:
            Path(msg["spans"]).write_text(json.dumps(tracer.spans))
            reply["counts"] = dict(tracer.counts)
            reply["gc_s"] = tracer.gc_s
            reply.update(tracing.field_probes())
        _send(proto, reply)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
