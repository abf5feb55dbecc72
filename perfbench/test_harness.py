"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_per_layer_metrics_are_produced_and_mapped():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"]}
    produced = {*tracing.SELF_GROUPS, *tracing.COUNTERS, *tracing.FIELD_PROBES,
                "runtime.gc_s", "trace.overhead_s", "probe.failed"}
    mapping = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    mapped = {m for group in mapping["groups"] for m in group["metrics"]}
    assert listed == produced == mapped
    assert [w["name"] for w in bench["workloads"]] == list(workloads.MAKERS)


@pytest.mark.parametrize("family", ["hadamard", "disjointness"])
@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_freivalds_rejects_one_changed_entry(tmp_path, family, p):
    factors = checks.butterfly_factors(family, 6, 3, p)
    good = tmp_path / "good.circ"
    checks.write_circuit(good, p, factors)
    assert checks.freivalds(checks.read_circuit(good), family, 6, seed=1)
    rng = random.Random(p)
    for trial in range(5):
        which = rng.randrange(len(factors))
        vals = factors[which][4].copy()
        at = rng.randrange(vals.size)
        vals[at] = vals[at] % (p - 1) + 1
        bad_factors = list(factors)
        bad_factors[which] = factors[which][:4] + (vals,)
        bad = tmp_path / f"bad{trial}.circ"
        checks.write_circuit(bad, p, bad_factors)
        assert not checks.freivalds(checks.read_circuit(bad), family, 6, seed=trial)


@pytest.mark.parametrize("damage", ["truncate", "duplicate"])
def test_reader_rejects_malformed_file(tmp_path, damage):
    path = tmp_path / "c.circ"
    checks.write_circuit(path, 5, checks.butterfly_factors("hadamard", 4, 2, 5))
    lines = path.read_text().splitlines(keepends=True)
    if damage == "truncate":
        lines = lines[:-3]
    else:  # repeat the last entry's cell, keeping the header counts right
        lines[-2] = lines[-1]
    path.write_text("".join(lines))
    with pytest.raises(checks.CheckFailed):
        checks.read_circuit(path)


SPANS = [
    ["op", 0.0, 10.0, -1, "a"],
    ["sparse.kron", 1.0, 4.0, 0, "a"],
    ["sparse.matmul", 2.0, 3.0, 1, "a"],
    ["cli.main", 5.0, 9.0, 0, "a"],
    ["op", 20.0, 22.0, -1, "b"],
    ["sparse.kron", 20.5, 21.0, 4, "b"],
]


def test_self_times_sum_to_root_on_synthetic_spans():
    assert tracing.self_times(SPANS) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5, 0.5])
    assert tracing.check_spans(SPANS, {"a": 10.0, "b": 2.0}) == []
    metrics = tracing.layer_metrics(SPANS, {"sparse.kron.calls": 2}, 0.25)
    assert metrics["sparse.kron.self_s"] == pytest.approx(2.5)
    assert metrics["sparse.self_s"] == pytest.approx(3.5)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["sparse.kron.calls"] == 2
    assert metrics["runtime.gc_s"] == 0.25


@pytest.mark.parametrize("damage, op_times, why", [
    ([(2, 2, 0.0)], {"a": 10.0, "b": 2.0}, "not closed"),
    ([(3, 2, 10.5)], {"a": 10.0, "b": 2.0}, "outside its parent"),
    ([(3, 1, 1.0), (3, 2, 9.5)], {"a": 10.0, "b": 2.0}, "negative self time"),  # overlapping children
    ([], {"a": 10.0, "b": 1.5}, "the op 1.5"),
    ([], {"a": 10.0}, "root spans differ"),
])
def test_span_check_catches_broken_spans(damage, op_times, why):
    spans = [list(s) for s in SPANS]
    for idx, field, value in damage:
        spans[idx][field] = value
    problems = tracing.check_spans(spans, op_times)
    assert any(why in p for p in problems), problems


@pytest.mark.parametrize("name", list(workloads.MAKERS))
def test_generator_writes_identical_files_for_a_seed(tmp_path, name):
    def snapshot(folder, seed):
        folder.mkdir()
        wl = workloads.build(name, seed, folder)
        files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
        argvs = [[a.replace(str(folder), "<tmp>") for a in op["argv"]]
                 for op in wl.ops + wl.aux + wl.probes]
        return files, argvs

    first = snapshot(tmp_path / "a", 7)
    assert first == snapshot(tmp_path / "b", 7)
    assert first != snapshot(tmp_path / "c", 8)


@pytest.mark.parametrize("convention", ["or", "and"])
@pytest.mark.parametrize("p", [0, 11, 2**31 - 1])
def test_batch_reference_matches_the_definition(convention, p):
    rng = random.Random(3)
    n = 5
    values = [rng.randrange(p) if p else rng.randint(-9, 9) for _ in range(1 << n)]
    points = [rng.randrange(1 << n) for _ in range(40)]
    got = checks.batch_reference(values, points, convention, p)
    for s in range(1 << n):
        direct = sum(values[(s | t) if convention == "or" else (s & t)] for t in points)
        assert got[s] == (direct % p if p else direct)


def test_closed_forms_match_the_pinned_values():
    for key, pinned in checks.PINNED_MMCOST.items():
        assert checks.mmcost_closed_form(*key) == pinned
    for key, pinned in checks.PINNED_DSTATS.items():
        assert checks.dstats_closed_form(*key) == pinned


def test_reference_transforms_match_dense_matrices():
    n, p = 4, 13
    x = np.random.default_rng(0).integers(0, p, size=(1 << n, 3), dtype=np.int64)
    idx = np.arange(1 << n)
    and_ = idx[:, None] & idx[None, :]
    parity = np.array([[bin(v).count("1") & 1 for v in row] for row in and_])
    hadamard = np.where(parity == 1, -1, 1)
    disjoint = (and_ == 0).astype(np.int64)
    assert np.array_equal(checks.walsh_hadamard(x, p), (hadamard @ x) % p)
    assert np.array_equal(checks.disjointness_apply(x, p), (disjoint @ x) % p)


@pytest.fixture
def kronrigid_modules():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from kronrigid import circuits, cli, rigidity, sparse, vf
        from kronrigid.fields import FieldCtx

        yield circuits, cli, rigidity, sparse, vf, FieldCtx
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_trace_wrappers_return_the_unwrapped_values(kronrigid_modules):
    circuits, cli, rigidity, sparse, vf, FieldCtx = kronrigid_modules
    ctx = FieldCtx(7)

    def run_all():
        h2 = rigidity.hadamard_matrix(2, ctx)
        tf = circuits.two_factor_from_rigidity(rigidity.h2_rank1_decomposition(ctx))
        circ = circuits.lift_power(circuits.symmetrized_depth_d(tf, 2), 4)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["mmcost", "--n", "6", "--k", "2", "--backend", "strassen"])
        return (sparse.kron(h2, h2), circ.factors, vf.fast_rn_apply(ctx, list(range(16))),
                rc, out.getvalue())

    original_kron = sparse.kron
    want = run_all()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert circuits.kron is not original_kron  # bound by `from .sparse import kron`
        root = tracer.begin_op("test")
        got = run_all()
        tracer.end_op(root)
    finally:
        restore()
    assert got == want
    assert circuits.kron is original_kron and sparse.kron is original_kron
    assert tracer.counts["sparse.kron.calls"] > 1
    assert tracer.counts["cli.exit.0"] == 1
    assert tracer.counts["mmbridge.mults"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"sparse.kron", "circuits.lift_power", "cli.main", "cli.cmd_mmcost"} <= names
