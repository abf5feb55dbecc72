"""Span tracing of kronrigid from outside its source tree.

`install` wraps every public function of the traced modules at every place
it is bound, so calls made through `from .sparse import kron` are seen as
well as calls through `sparse.kron`.  A span is [name, start, end, parent,
op]; spans stay in memory and are written out when the run ends.  FieldCtx
methods are too hot to wrap, so `field_probes` times them with timeit.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import statistics
import sys
import time
import timeit
from collections import Counter, defaultdict
from fractions import Fraction

PACKAGE = "kronrigid"
LAYERS = ("fields", "sparse", "rigidity", "circuits", "disjoint", "vf", "mmbridge", "cli")

# Per-layer self-time metrics: metric -> span names or a layer prefix.
SELF_GROUPS = {
    "sparse.self_s": "sparse.",
    "sparse.kron.self_s": ["sparse.kron"],
    "sparse.matmul.self_s": ["sparse.matmul"],
    "circuits.build.self_s": ["circuits.two_factor_from_rigidity",
                              "circuits.symmetrized_depth_d", "circuits.lift_power"],
    "circuits.save.self_s": ["circuits.save_circuit", "circuits.dump_circuit"],
    "circuits.load.self_s": ["circuits.load_circuit", "circuits.parse_circuit"],
    "circuits.target.self_s": ["circuits.hadamard_dense_np"],
    "circuits.verify.self_s": ["circuits.verify_against_dense", "circuits.verify_circuit"],
    "disjoint.target.self_s": ["disjoint.disjointness_csr"],
    "disjoint.self_s": "disjoint.",
    "disjoint.factor.self_s": ["disjoint.js_factorization", "disjoint.js_partition",
                               "disjoint.disjointness_matrix"],
    "disjoint.removal.self_s": ["disjoint.dense_removal", "disjoint.binom_cum"],
    "vf.self_s": "vf.",
    "vf.batch.self_s": ["vf.batch_sums"],
    "vf.butterfly.self_s": ["vf.fast_rn_apply"],
    "vf.load.self_s": ["vf.load_truthtable", "vf.parse_truthtable", "vf.parse_points"],
    "rigidity.brute_force.self_s": ["rigidity.brute_force_rigidity"],
    "rigidity.construct.self_s": ["rigidity.h2_rank1_decomposition",
                                  "rigidity.cube_rank1_decomposition",
                                  "rigidity.h4_rank1_decomposition",
                                  "rigidity.hadamard_matrix"],
    "mmbridge.self_s": "mmbridge.",
    "cli.self_s": "cli.",
}

COUNTERS = ("sparse.kron.calls", "sparse.kron.out_nnz", "circuits.save.bytes", "circuits.wires",
            "circuits.load.bytes", "vf.butterfly.ops", "mmbridge.mults", "mmbridge.adds",
            "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3", "cli.uncaught",
            "runtime.gc.gen2")
FIELD_PROBES = ("fields.add_raw_ns.fp", "fields.mul_raw_ns.fp", "fields.mul_raw_ns.q")
PROBE_PRIME = 2**31 - 1
PROBE_REPEAT, PROBE_NUMBER = 5, 200_000
# How far an op's root span may differ from the op time the worker measured.
ROOT_TOLERANCE_S = 1e-3


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _on_kron(counts, result, args):
    counts["sparse.kron.calls"] += 1
    counts["sparse.kron.out_nnz"] += result.nnz


def _on_save(counts, result, args):
    counts["circuits.wires"] += args[0].wires
    counts["circuits.save.bytes"] += _file_size(args[1])


def _on_load(counts, result, args):
    counts["circuits.load.bytes"] += _file_size(args[0])


def _on_butterfly(counts, result, args):
    counts["vf.butterfly.ops"] += result[1]["adds"] + result[1]["subs"]


def _on_mmcost(counts, result, args):
    counts["mmbridge.mults"] += result["mults"]
    counts["mmbridge.adds"] += result["adds"]


def _on_main(counts, result, args):
    counts[f"cli.exit.{result}"] += 1


HOOKS = {
    "sparse.kron": _on_kron,
    "circuits.save_circuit": _on_save,
    "circuits.load_circuit": _on_load,
    "vf.fast_rn_apply": _on_butterfly,
    "mmbridge.mm_cost_report": _on_mmcost,
    "cli.main": _on_main,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.gc_s = 0.0
        self._gc_start = None

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self.open("op")

    def end_op(self, idx):
        self.close(idx)
        self.op = None

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.counts["runtime.gc.gen2"] += 1


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except SystemExit as exc:
            tracer.close(idx)
            if name == "cli.main":
                tracer.counts[f"cli.exit.{exc.code}"] += 1
            raise
        except BaseException:
            tracer.close(idx)
            if name == "cli.main":
                tracer.counts["cli.uncaught"] += 1
            raise
        tracer.close(idx)
        if hook:
            hook(tracer.counts, result, args)
        return result

    return traced


def install(tracer):
    """Wrap the public functions of LAYERS wherever they are bound, and
    time garbage collection.  Returns a function that undoes both."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    replaced = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
                replaced.append((mod, attr, obj))
    gc.callbacks.append(tracer.on_gc)

    def restore():
        gc.callbacks.remove(tracer.on_gc)
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)

    return restore


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans, op_times):
    """Problems with the spans of traced ops; op_times maps each op id to
    its time as the worker measured it.

    Self times add up to each op's root span by construction, so this
    checks what can go wrong instead: every span is closed and lies within
    its parent, no span's children outlast it, and each root span agrees
    with the measured op time.
    """
    problems = []
    for idx, ((name, start, end, parent, op), own) in enumerate(zip(spans, self_times(spans))):
        where = f"span {idx} ({name}, op {op})"
        if end < start:
            problems.append(f"{where} is not closed")
        elif parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            problems.append(f"{where} lies outside its parent span {parent}")
        elif own < -1e-9:
            problems.append(f"{where} has negative self time {own:.3g} s")
        elif parent < 0 and abs(end - start - op_times.get(op, end - start)) > ROOT_TOLERANCE_S:
            problems.append(f"{where} lasts {end - start:.6f} s, the op {op_times[op]:.6f} s")
    if set(op_times) != {op for _, _, _, parent, op in spans if parent < 0}:
        problems.append("the traced ops and the root spans differ")
    return problems


def layer_metrics(spans, counts, gc_s):
    """Per-layer metrics of the traced ops."""
    own = self_times(spans)
    by_name = defaultdict(float)
    for (name, *_), s in zip(spans, own):
        by_name[name] += s
    metrics = {}
    for metric, names in SELF_GROUPS.items():
        if isinstance(names, str):
            metrics[metric] = sum(v for k, v in by_name.items() if k.startswith(names))
        else:
            metrics[metric] = sum(by_name.get(k, 0.0) for k in names)
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    metrics["runtime.gc_s"] = gc_s
    return metrics


def field_probes():
    """Nanoseconds per FieldCtx.add_raw / mul_raw call, median of repeats."""
    from kronrigid.fields import FieldCtx

    def ns(fn, x, y):
        t = timeit.Timer("f(x, y)", globals={"f": fn, "x": x, "y": y})
        return statistics.median(t.repeat(repeat=PROBE_REPEAT, number=PROBE_NUMBER)) / PROBE_NUMBER * 1e9

    fp = FieldCtx(PROBE_PRIME)
    q = FieldCtx(0)
    a, b = PROBE_PRIME // 3, PROBE_PRIME // 2 + 1
    timings = (ns(fp.add_raw, a, b), ns(fp.mul_raw, a, b),
               ns(q.mul_raw, Fraction(355, 113), Fraction(-22, 7)))
    return dict(zip(FIELD_PROBES, timings))
