"""Seeded benchmark of the kronrigid command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Run from the root of a source tree.  Workloads are listed in BENCHMARK.json
and built by workloads.py.  A run imports kronrigid from ./src in one worker
process and drives it only through `kronrigid.cli.main(argv)`: a closed loop
with one client, one op at a time.  Each op's output is checked afterwards,
outside the timed region, by checks.py.  Untraced runs report the end-to-end
metrics; `--trace 1` reports per-layer metrics from spans recorded by
tracing.py.  The last line of output is the result as one JSON object; it is
also saved under .perfbench/results/ for --compare.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The time of worker.calibrate() that defines the reference speed: a time
# is scaled by REF_CALIB_S over the calibration time measured with it.
REF_CALIB_S = 0.020


def ref_time(t, reply):
    """Time t of a worker's answer, scaled to the reference speed by the
    mean of the calibrations run right before and right after it."""
    return t * 2 * REF_CALIB_S / (reply["calib_before_s"] + reply["calib_s"])


def medians(lists):
    return [statistics.median(t) for t in lists if t]


class Worker:
    """A worker.py process; its first answer is its set-up time.  The
    calibration time of every answer is appended to `calib`."""

    def __init__(self, calib, *flags):
        self.calib = calib
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"), *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **WORKER_ENV},
        )
        try:
            reply = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = reply["setup_s"]
        self.setup_ref_s = ref_time(reply["setup_s"], reply)

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        self.calib.append(reply["calib_s"])
        return reply

    def request(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self, **msg):
        reply = self.request({"cmd": "finish", **msg})
        self.proc.wait(timeout=60)
        return reply

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()


class Tally:
    """Op times and failures of one run; times, as measured and scaled to
    the reference speed, are kept per op of the list, and the worker's time
    of each traced op by its id."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.ref_times = [[] for _ in ops]
        self.traced_times = {}
        self.attempted = 0
        self.failures = []

    def run(self, worker, i, traced=False, cleanup=True):
        """Run op i of the list once; its scaled time, or None if it failed."""
        op = self.ops[i]
        self.attempted += 1
        op_id = f"{self.attempted}:{op['id']}"
        res, why = run_checked(worker, op, op_id, traced, cleanup)
        if traced:
            self.traced_times[op_id] = res["t"]
        if why:
            self.failures.append((op["id"], why))
            return None
        self.times[i].append(res["t"])
        self.ref_times[i].append(ref_time(res["t"], res))
        return self.ref_times[i][-1]

    def one_pass(self, worker):
        for i in range(len(self.ops)):
            self.run(worker, i)

    @property
    def samples(self):
        return sum(len(t) for t in self.times)


def run_checked(worker, op, op_id, traced=False, cleanup=True):
    """Run one op, check its output, and delete the files it leaves."""
    res = worker.request({"cmd": "op", "id": op_id, "argv": op["argv"], "traced": traced})
    why = checks.check(op, res)
    for path in op.get("cleanup", ()) if cleanup else ():
        Path(path).unlink(missing_ok=True)
    return res, why


def run_extra(worker, ops, traced=False):
    """Ops outside the timed workload: a line for each that fails its
    check, and each op's time by its id."""
    bad, times = [], {}
    for op in ops:
        res, why = run_checked(worker, op, op["id"], traced)
        times[op["id"]] = res["t"]
        if why:
            bad.append(f"{op['id']}: {why}")
    return bad, times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sample_setup(setup, calib, count):
    for _ in range(count):
        with Worker(calib, "--setup-only") as w:
            setup.append((w.setup_s, w.setup_ref_s))
            w.proc.wait(timeout=60)


def measure(wl, seconds):
    """Untraced run: passes over the op list for about `seconds`.

    The machine's speed drifts over seconds and over minutes, so each op's
    time is its median over the passes, and set-up is sampled before,
    between and after them.  Each set-up and op time is scaled to the
    reference speed by the calibrations its worker ran right before and
    right after it.
    """
    tally = Tally(wl.ops)
    setup, calib = [], []
    sample_setup(setup, calib, 3)
    with Worker(calib) as w:
        setup.append((w.setup_s, w.setup_ref_s))
        problems, _ = run_extra(w, wl.aux)
        t0 = time.perf_counter()
        tally.one_pass(w)
        passes = max(1, round(seconds / (time.perf_counter() - t0)))
        sample_setup(setup, calib, 2)
        for _ in range(passes - 1):
            tally.one_pass(w)
        probes, _ = run_extra(w, wl.probes)
        rss = w.finish()["rss_mb"]
    sample_setup(setup, calib, SETUP_SAMPLES - len(setup))
    speed = statistics.median(calib)
    ref, raw = medians(tally.ref_times), medians(tally.times)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), f"{len(setup)} imports"),
        "wall_s": (sum(ref), f"{passes} passes, sum of per-op medians"),
        "peak_rss_mb": (rss, "1 worker"),
    }
    notes = [f"times scaled to a {REF_CALIB_S * 1e3:.0f} ms calibration loop; its median was "
             f"{speed * 1e3:.3f} ms over {len(calib)} samples; unscaled wall_s {sum(raw):.4f} s, "
             f"setup_s {statistics.median(s for s, _ in setup):.4f} s",
             f"fail_ratio = {len(tally.failures) / tally.attempted:.4f} "
             f"({len(tally.failures)} of {tally.attempted} ops)",
             f"op_s.p50 = {statistics.median(ref):.6f} s "
             f"(median of per-op medians, n = {len(ref)} ops x {passes} passes)"]
    if tally.samples >= 100:
        p90 = statistics.quantiles([t for ts in tally.ref_times for t in ts], n=10)[-1]
        notes.append(f"op_s.p90 = {p90:.6f} s (n={tally.samples} op runs)")
    return tally, metrics, problems, probes, notes, speed


def measure_traced(wl, seed):
    """Each op once untraced and once traced, in alternating order, in one
    worker; per-layer metrics from the spans of the traced runs."""
    tally, calib, overhead = Tally(wl.ops), [], []
    spans_path = OUT / f"spans-{wl.name}-{seed}.json"
    with Worker(calib) as w:
        problems, _ = run_extra(w, wl.aux)
        for i in range(len(wl.ops)):
            order = (False, True) if i % 2 == 0 else (True, False)
            t = {traced: tally.run(w, i, traced, cleanup=k == 1) for k, traced in enumerate(order)}
            if None not in t.values():
                overhead.append(t[True] - t[False])
        probes, probe_times = run_extra(w, wl.probes, traced=True)
        reply = w.finish(spans=str(spans_path))
    spans = json.loads(spans_path.read_text())
    problems += tracing.check_spans(spans, {**tally.traced_times, **probe_times})
    values = tracing.layer_metrics(spans, reply["counts"], reply["gc_s"])
    for name in tracing.FIELD_PROBES:
        values[name] = reply[name]
    values["trace.overhead_s"] = sum(overhead)
    values["probe.failed"] = len(probes)
    q = quartiles(overhead) if overhead else (0.0, 0.0, 0.0)
    notes = [f"trace.overhead_s sums {len(overhead)} adjacent untraced/traced pairs, each time "
             f"scaled as in untraced runs; per-op difference q1/median/q3 "
             f"{q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f} s",
             f"{len(spans)} spans kept in {spans_path.relative_to(ROOT)}"]
    samples = {**{k: f"{len(tally.traced_times)} traced ops" for k in values},
               **{k: f"median of {tracing.PROBE_REPEAT} timeit repeats"
                  for k in tracing.FIELD_PROBES},
               "trace.overhead_s": f"{len(overhead)} pairs"}
    metrics = {k: (v, samples[k]) for k, v in values.items()}
    return tally, metrics, problems, probes, notes, statistics.median(calib)


def run_workload(name, seed, seconds, trace, bench):
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = workloads.build(name, seed, tmp)
        if trace:
            tally, values, problems, probes, notes, speed = measure_traced(wl, seed)
        else:
            tally, values, problems, probes, notes, speed = measure(wl, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = bench["per_layer" if trace else "end_to_end"]
    print(f"== {name} seed={seed} trace={trace}: {tally.attempted} ops, "
          f"{len(tally.failures)} failed")
    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6f} {m['unit']:<6} (n = {samples})")
    for line in notes:
        print(f"  {line}")
    for op_id, why in tally.failures:
        print(f"  FAILED {op_id}: {why}")
    for line in problems:
        print(f"  CHECK {line}")
    for line in probes:
        print(f"  known defect {line}")
    result = {
        "correct": not tally.failures and not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    return result, speed


def save(result, speed, name, seed, trace):
    """Keep a run's result, with its median calibration time, for --compare."""
    folder = OUT / "results" / name
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"seed{seed}-trace{trace}-{time.time_ns()}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "trace": trace,
                                "time": time.time(), "calib_s": speed, "result": result}))


def load_results(folder):
    runs = {}
    for path in sorted(Path(folder).rglob("*.json")):
        rec = json.loads(path.read_text())
        if isinstance(rec, dict) and rec.get("trace") == 0 and "result" in rec:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["time"])
    return runs


def compare(dir_a, dir_b, bench):
    """Per workload and end-to-end metric: both sides' quartiles, the share
    of alternating pairs B wins, and a verdict by the benchmark's bounds.

    The spread is the wider of the two sides' IQR/median and the drift of
    the machine's speed between the sides (their median calibration times),
    because the scaling to the reference speed corrects that drift only in
    part.
    """
    a_runs, b_runs = load_results(dir_a), load_results(dir_b)
    print(f"{'workload':<14} {'metric':<12} {'A q1/med/q3':<30} {'B q1/med/q3':<30} "
          f"{'B wins':>7}  verdict")
    for name in sorted(set(a_runs) & set(b_runs)):
        speeds = [statistics.median(r["calib_s"] for r in runs)
                  for runs in (a_runs[name], b_runs[name])]
        drift = max(speeds) / min(speeds) - 1
        for m in bench["end_to_end"]:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in a_runs[name]]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in b_runs[name]]
            qa, qb = quartiles(a), quartiles(b)
            sign = -1 if m["better"] == "lower" else 1
            pairs = list(zip(a, b))
            share = sum((y - x) * sign > 0 for x, y in pairs) / len(pairs)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if m["unit"] == "s":
                spread = max(spread, drift)
            dominates = min(b) > max(a) if sign > 0 else max(b) < min(a)
            if spread > m["bound"] and not dominates:
                verdict = "unresolved"
            elif (qb[1] - qa[1]) * sign < -m["bound"] * qa[1]:
                verdict = "worse"
            elif dominates or (share >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "better"
            else:
                verdict = "same"
            fa = "/".join(f"{v:.4g}" for v in qa)
            fb = "/".join(f"{v:.4g}" for v in qb)
            print(f"{name:<14} {m['name']:<12} {fa:<30} {fb:<30} {share:>7.0%}  {verdict}"
                  f" (n={len(a)}/{len(b)}, spread {spread:.3f}, bound {m['bound']})")
        print(f"{name:<14} machine speed drift between the sides {drift:.3f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.MAKERS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "kronrigid" / "cli.py").is_file():
        print(f"no kronrigid source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.MAKERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], speed = run_workload(name, args.seed, args.seconds, args.trace, bench)
        save(results[name], speed, name, args.seed, args.trace)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
