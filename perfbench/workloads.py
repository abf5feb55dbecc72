"""Seeded inputs and op lists of the three benchmark workloads.

`build(name, seed, tmp)` writes every input file an op reads (truth
tables, point sets, .mat files, tampered and truncated circuits) into tmp
and returns the op list.  The same seed gives byte-identical files and the
same ops.  Each op is a dict: `argv` is what kronrigid receives, the other
keys say how checks.check judges the result.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks

# Large fields are drawn from the top band of odd primes below 2^31, so
# every seed exercises the same integer sizes (two-digit CPython ints).
P_LOW, P_MAX = 2**30, 2**31 - 1
SMALL_PRIMES = [p for p in range(3, 128) if checks.is_prime(p)]

SYNTH_LARGE = [
    ("hadamard", 16, 4, "h4"),
    ("disjointness", 16, 2, "js:8"),
    ("disjointness", 16, 4, "js:4"),
    ("disjointness", 16, 2, "js:4"),
    ("hadamard", 12, 2, "h2"),
    ("hadamard", 12, 3, "h2"),
]

ROUNDTRIP = [
    ("hadamard", 4, 2, "h2"),
    ("hadamard", 6, 3, "h2"),
    ("hadamard", 8, 2, "h2"),
    ("hadamard", 8, 4, "h2"),
    ("hadamard", 8, 2, "h4"),
    ("hadamard", 12, 3, "h4"),
    ("hadamard", 6, 2, "h3cube"),
    ("hadamard", 9, 3, "h3cube"),
    ("hadamard", 12, 4, "h3cube"),
    ("disjointness", 4, 2, "js:1"),
    ("disjointness", 6, 2, "js:3"),
    ("disjointness", 6, 3, "js:2"),
    ("disjointness", 8, 2, "js:4"),
    ("disjointness", 8, 4, "js:2"),
    ("disjointness", 9, 3, "js:3"),
    ("disjointness", 10, 2, "js:5"),
    ("disjointness", 12, 2, "js:6"),
    ("disjointness", 12, 3, "js:4"),
]

# Butterfly circuits, written by the harness with one entry changed.
TAMPERED = [("hadamard", 10, 2), ("disjointness", 10, 2), ("hadamard", 8, 4)]

# (n, field, convention, points); field "p" is a seeded prime, "q" the rationals.
BATCH = [
    (12, "q", "or", 20000),
    (13, "p", "and", 1000),
    (14, "p", "or", 5000),
    (13, "q", "and", 2000),
    (15, "p", "and", 10000),
    (16, "p", "or", 20000),
]
MMCOST = [(8, 2), (9, 3), (10, 2)]
DSTATS = [(14, 6), (16, 8)]


class Workload:
    def __init__(self, name):
        self.name = name
        self.ops = []  # timed, run once per pass
        self.aux = []  # untimed cross-checks, run once per run
        self.probes = []  # untimed known-defect probes, run once per run


def _synth_op(config, p, path, rng, tag):
    fam, n, d, base = config
    return {
        "id": f"{tag}synth:{fam}:{n}:{d}:{base}",
        "kind": "synth",
        "config": config,
        "p": p,
        "path": str(path),
        "check_seed": rng.randrange(2**32),
        "argv": ["synth", "--family", fam, "--n", str(n), "--depth", str(d),
                 "--base", base, "--field", str(p), "--out", str(path)],
    }


def _verify_op(fam, n, path, expect_rc, wires, tag, cleanup=()):
    return {
        "id": f"{tag}verify:{fam}:{n}:{Path(path).name}",
        "kind": "verify",
        "expect_rc": expect_rc,
        "wires": wires,
        "cleanup": list(cleanup),
        "argv": ["verify", "--circuit", str(path), "--family", fam, "--n", str(n)],
    }


def _bench_ops(configs):
    return [{
        "id": f"bench:{fam}:{n}:{d}:{base}",
        "kind": "bench",
        "config": (fam, n, d, base),
        "argv": ["bench", "--family", fam, "--n", str(n), "--depth", str(d), "--base", base],
    } for fam, n, d, base in dict.fromkeys(configs)]


def _tampered_circuit(rng, fam, n, d, path):
    """A butterfly circuit for the family with one entry's value changed."""
    p = rng.choice(SMALL_PRIMES) if fam == "hadamard" else checks.random_prime(rng, P_LOW, P_MAX)
    factors = checks.butterfly_factors(fam, n, d, p)
    target = rng.randrange(len(factors))
    vals = factors[target][4].copy()
    at = rng.randrange(vals.size)
    vals[at] = vals[at] % (p - 1) + 1  # another nonzero residue
    factors[target] = factors[target][:4] + (vals,)
    checks.write_circuit(path, p, factors)
    wrong = not checks.freivalds(checks.read_circuit(path), fam, n, rng.randrange(2**32))
    return (1 if wrong else 0), sum(len(f[4]) for f in factors)


def _synth_large(w, rng, tmp):
    for i, config in enumerate(SYNTH_LARGE):
        op = _synth_op(config, checks.random_prime(rng, P_LOW, P_MAX), tmp / f"large{i}.circ", rng, "")
        op["cleanup"] = [op["path"]]
        w.ops.append(op)
    w.aux = _bench_ops(SYNTH_LARGE)


def _roundtrip_mix(w, rng, tmp):
    jobs = []
    for i, config in enumerate(ROUNDTRIP):
        fam, n = config[0], config[1]
        # The dense verify of a Hadamard target overflows for p > 127, a known
        # defect run below as a probe; the timed ops must not fail.
        p = rng.choice(SMALL_PRIMES) if fam == "hadamard" else checks.random_prime(rng, P_LOW, P_MAX)
        path = tmp / f"rt{i}.circ"
        wires = sum(checks.PINNED_CIRCUITS[config])
        jobs.append([_synth_op(config, p, path, rng, ""),
                     _verify_op(fam, n, path, 0, wires, "", cleanup=[path])])
    for i, (fam, n, d) in enumerate(TAMPERED):
        path = tmp / f"tampered{i}.circ"
        expect, wires = _tampered_circuit(rng, fam, n, d, path)
        jobs.append([_verify_op(fam, n, path, expect, wires, "")])
    rng.shuffle(jobs)
    w.ops = [op for job in jobs for op in job]
    w.aux = _bench_ops(ROUNDTRIP)

    # Known defects, run untimed and reported apart from the workload:
    # dense verify of a Hadamard circuit at p > 127, and unreadable files.
    config = ("hadamard", 8, 2, "h2")
    path = tmp / "probe_bigp.circ"
    p = checks.random_prime(rng, 131, P_MAX)
    w.probes.append(_synth_op(config, p, path, rng, "probe:"))
    w.probes.append(_verify_op("hadamard", 8, path, 0, sum(checks.PINNED_CIRCUITS[config]),
                               "probe:", cleanup=[path]))
    empty = tmp / "probe_empty.circ"
    empty.write_text("")
    w.probes.append(_verify_op("hadamard", 8, empty, 2, 0, "probe:"))
    full = tmp / "probe_full.circ"
    checks.write_circuit(full, 7, checks.butterfly_factors("hadamard", 8, 2, 7))
    lines = full.read_text().splitlines(keepends=True)
    cut = tmp / "probe_truncated.circ"
    cut.write_text("".join(lines[: rng.randrange(2, len(lines) - 1)]))
    full.unlink()
    w.probes.append(_verify_op("hadamard", 8, cut, 2, 0, "probe:"))


def _algebra_mix(w, rng, tmp):
    ops = []
    for i, (n, field, convention, count) in enumerate(BATCH):
        p = checks.random_prime(rng, P_LOW, P_MAX) if field == "p" else 0
        if p:
            values = [rng.randrange(p) for _ in range(1 << n)]
        else:
            values = [rng.randint(-100, 100) for _ in range(1 << n)]
        points = [rng.randrange(1 << n) for _ in range(count)]
        tt, pts = tmp / f"f{i}.tt", tmp / f"pts{i}.txt"
        tt.write_text(f"truthtable 2 {n} {p}\n" + "".join(f"{v}\n" for v in values))
        pts.write_text("".join(f"{s:0{n}b}\n" for s in points))
        ops.append({
            "id": f"batch:{n}:{'F_p' if p else 'Q'}:{convention}:{count}",
            "kind": "batch", "n": n, "p": p, "convention": convention,
            "values": values, "points": points,
            "argv": ["batch", "--f", str(tt), "--points", str(pts), "--convention", convention],
        })
    for p in (3, 5):
        mat, wit = tmp / f"h2_{p}.mat", tmp / f"h2_{p}.rig"
        mat.write_text(f"4 4 {p}\n" + "".join(
            f"{i} {j} {(-1) ** bin(i & j).count('1') % p}\n" for i in range(4) for j in range(4)))
        ops.append({
            "id": f"rigidity:h2:F_{p}", "kind": "rigidity", "p": p, "witness": str(wit),
            "argv": ["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "4",
                     "--out", str(wit)],
        })
    for n, k in MMCOST:
        for backend in ("naive", "strassen"):
            p = checks.random_prime(rng, P_LOW, P_MAX)
            ops.append({
                "id": f"mmcost:{n}:{k}:{backend}", "kind": "mmcost",
                "n": n, "k": k, "backend": backend,
                "argv": ["mmcost", "--n", str(n), "--k", str(k), "--backend", backend,
                         "--field", str(p)],
            })
    for n, k in DSTATS:
        ops.append({
            "id": f"disjoint-stats:{n}:{k}", "kind": "dstats", "n": n, "k": k,
            "argv": ["disjoint-stats", "--n", str(n), "--k", str(k), "--method", "scan"],
        })
    rng.shuffle(ops)
    w.ops = ops


MAKERS = {
    "synth_large": _synth_large,
    "roundtrip_mix": _roundtrip_mix,
    "algebra_mix": _algebra_mix,
}


def build(name: str, seed: int, tmp) -> Workload:
    """Write the workload's inputs for this seed into tmp; return its ops."""
    w = Workload(name)
    MAKERS[name](w, random.Random(f"{name}:{seed}"), Path(tmp))
    return w
