"""Command-line front end: synthesis, verification, rigidity search,
batch sums, disjointness stats, matmul cost, and benchmark CSV sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import circuits, disjoint, mmbridge, rigidity, sparse, vf
from .errors import (
    CapExceeded,
    DepthTooSmall,
    DimensionCapExceeded,
    ExceedsBound,
    KronRigidError,
    NotSquare,
    WorkCapExceeded,
)
from .fields import FieldCtx

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# The built-in Hadamard bases, each a rigidity decomposition of H_1^{kron t};
# "js:m" names the disjointness base R_m.
_HADAMARD_BASES = {
    "h2": rigidity.h2_rank1_decomposition,
    "h3cube": lambda ctx: rigidity.cube_rank1_decomposition(rigidity.hadamard_matrix(1, ctx)),
    "h4": rigidity.h4_rank1_decomposition,
}


def _base_factorization(family: str, name: str, n: int, depth: int, ctx: FieldCtx):
    """Resolve --base to the two-factorization of its base power; the
    digits it covers are read off its size by circuits.synthesize.

    'auto' is h4 for hadamard, the built-in Hadamard base with the lowest
    wire-growth exponent c, and js:min(max(1, n // d), disjoint.LIST_CAP)
    for disjointness: n // d digits, at most the partition cap.
    Whether the base fits the family is checked by circuits.unit_power.
    """
    if depth < 2:
        raise DepthTooSmall("depth must be at least 2")
    if name == "auto":
        name = "h4" if family == "hadamard" else f"js:{min(max(1, n // depth), disjoint.LIST_CAP)}"
    if name.startswith("js:"):
        return disjoint.js_factorization(int(name[3:]), ctx)
    if name not in _HADAMARD_BASES:
        raise ValueError(f"unknown base {name!r}")
    return circuits.two_factor_from_rigidity(_HADAMARD_BASES[name](ctx))


def _formula_bound(tf, n: int, depth: int) -> float:
    """The formula bound d N^(1 + c/d) for a depth-d circuit of N = 2^n,
    c the base's tf.exponent; CapExceeded beyond float range, before
    anything of size n is built."""
    try:
        bound = depth * (2.0**n) ** (1 + tf.exponent / depth)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise CapExceeded(f"the formula bound for n = {n} is beyond float range")
    return bound


def _butterfly_wires(unit, n: int, depth: int) -> int:
    """Wires of the family's depth-d butterfly, d | n, counted on its structure."""
    return circuits.butterfly_circuit([unit] * n, n // depth).wires


def _family_unit(family: str, ctx: FieldCtx):
    """The 2x2 matrix whose Kronecker powers make up the family."""
    if family == "hadamard":
        return rigidity.hadamard_matrix(1, ctx)
    return disjoint.disjointness_matrix(1, ctx)


def cmd_synth(args) -> int:
    ctx = FieldCtx(args.field)
    tf = _base_factorization(args.family, args.base, args.n, args.depth, ctx)
    if args.n % args.depth:  # the butterfly of trivial= has n / depth digits per layer
        raise ValueError(f"n = {args.n} is not a multiple of depth {args.depth}")
    unit = _family_unit(args.family, ctx)
    bound = _formula_bound(tf, args.n, args.depth)
    circ = circuits.synthesize(tf, unit, args.n, args.depth)
    trivial = _butterfly_wires(unit, args.n, args.depth)
    if args.out:
        circ.check_caps()  # before anything is printed or built
    print(
        f"family={args.family} n={args.n} d={args.depth} wires={circ.wires} "
        f"trivial={trivial} bound={bound:.1f}"
    )
    if args.out:
        circuits.save_circuit(circ, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # a unit has q >= 2 rows, so n above the cap's bit length makes q^n
    # pass the cap: refused before the n operands are listed
    if args.n > sparse.DIMENSION_CAP.bit_length():
        raise DimensionCapExceeded(f"2^{args.n} rows exceed the cap {sparse.DIMENSION_CAP}")
    circ = circuits.load_circuit(args.circuit)
    ok = circuits.verify_circuit(circ, [_family_unit(args.family, circ.ctx)] * args.n)
    print(f"equal={ok} wires={circ.wires} depth={circ.depth}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_rigidity(args) -> int:
    m = sparse.load_matrix(args.matrix)
    if args.out and not m.is_square:  # before the search: the witness could not be written
        raise NotSquare(f"a witness file holds a square matrix, not {m.rows}x{m.cols}")
    try:
        minimum, witness = rigidity.brute_force_rigidity(
            m, args.rank, args.max_changes
        )
    except ExceedsBound:
        print(f"no decomposition with at most {args.max_changes} changes")
        return EXIT_VERIFY
    print(minimum)
    if args.out:
        rigidity.save_witness(witness, args.out)
    return EXIT_OK


def cmd_batch(args) -> int:
    table = vf.load_truthtable(args.f)
    with open(args.points) as fh:
        points = vf.parse_points(fh.read())
    answers, ops = vf.batch_sums(table, points, convention=args.convention)
    width = table.n
    for p in points:
        print(f"{p:0{width}b} {answers[p].value}")
    print(f"adds={ops['adds']} mults={ops['mults']}", file=sys.stderr)
    return EXIT_OK


def cmd_disjoint_stats(args) -> int:
    report = disjoint.dense_removal(args.n, args.k, method=args.method)
    print("n,k,removed,residual_row_nnz,residual_col_nnz,bound")
    print(report.as_csv_row())
    return EXIT_OK


def cmd_mmcost(args) -> int:
    if args.n < 1 or args.k < 1:
        raise ValueError(f"mmcost needs n >= 1 and k >= 1, not n = {args.n}, k = {args.k}")
    ctx = FieldCtx(args.field)
    h1 = rigidity.hadamard_matrix(1, ctx)
    # the probe has q^n entries, q >= 2: n is cut at the cap's bit length first
    if h1.rows ** min(args.n, sparse.DIMENSION_CAP.bit_length()) > sparse.DIMENSION_CAP:
        raise DimensionCapExceeded(f"{h1.rows}^{args.n} probe entries exceed the cap {sparse.DIMENSION_CAP}")
    backend = (
        mmbridge.NaiveBackend()
        if args.backend == "naive"
        else mmbridge.StrassenBackend()
    )
    report = mmbridge.mm_cost_report([h1] * args.n, args.k, backend)
    print("q,n,k,backend,mults,adds,dense_mults")
    print(
        f"{h1.rows},{args.n},{args.k},{args.backend},"
        f"{report['mults']},{report['adds']},{report['dense_mults']}"
    )
    if args.k >= 3:
        expo = args.k * math.log(args.k, args.k - 1)
        print(f"# rectangular exponent k*log_(k-1)(k) = {expo:.4f}", file=sys.stderr)
    return EXIT_OK


def _parse_range(spec: str):
    if ":" in spec:
        parts = [int(x) for x in spec.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return list(range(start, stop + 1, step))
    return [int(x) for x in spec.split(",")]


def cmd_bench(args) -> int:
    ctx = FieldCtx(args.field)
    unit = _family_unit(args.family, ctx)
    rows = []
    for n in _parse_range(args.n):
        for d in _parse_range(args.depth):
            tf = _base_factorization(args.family, args.base, n, d, ctx)
            circuits.unit_power(tf, unit)  # a base of the other family fails on any grid
            if n % d:
                continue
            bound = _formula_bound(tf, n, d)
            wires = circuits.synthesize(tf, unit, n, d).wires
            trivial = _butterfly_wires(unit, n, d)
            ratio = wires / (2**n * n)
            rows.append(
                f"{args.family},{n},{2**n},{d},{args.base},{wires},"
                f"{trivial},{bound:.1f},{ratio:.6f}"
            )
    print("\n".join(["family,n,N,d,base,wires,trivial_wires,formula_bound,ratio_nlogn", *rows]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kronrigid",
        description="Sparse circuit synthesis for Kronecker-power transforms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit")
    p.add_argument("--family", choices=["hadamard", "disjointness"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--base", default="auto")
    p.add_argument("--field", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="verify a circuit file against a family")
    p.add_argument("--circuit", required=True)
    p.add_argument("--family", choices=["hadamard", "disjointness"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rigidity", help="brute-force minimum changes to rank r")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-changes", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("batch", help="batched sums of f over point pairs")
    p.add_argument("--f", required=True, help="truth-table file")
    p.add_argument("--points", required=True, help="bitstring-per-line file")
    p.add_argument("--convention", choices=["or", "and"], default="or")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("disjoint-stats", help="dense row/col removal stats")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["auto", "scan", "count"], default="auto")
    p.set_defaults(func=cmd_disjoint_stats)

    p = sub.add_parser("mmcost", help="matmul-round evaluation cost")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--backend", choices=["naive", "strassen"], default="naive")
    p.add_argument("--field", type=int, default=5)
    p.set_defaults(func=cmd_mmcost)

    p = sub.add_parser("bench", help="CSV sweep over n/depth grids")
    p.add_argument("--family", choices=["hadamard", "disjointness"], required=True)
    p.add_argument("--n", required=True, help="a:b:step or comma list")
    p.add_argument("--depth", required=True, help="comma list")
    p.add_argument("--base", default="h4")
    p.add_argument("--field", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, DimensionCapExceeded, WorkCapExceeded) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, KronRigidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
