"""Command-line front end: synthesis, verification, rigidity search,
batch sums, disjointness stats, matmul cost, and benchmark CSV sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded (out of memory included).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import circuits, disjoint, mmbridge, rigidity, sparse, vf
from .errors import CapExceeded, DimensionMismatch, ExceedsBound, KronRigidError
from .fields import RATIONALS, FieldCtx

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# The built-in bases: name -> (family, rigidity decomposition of a power of
# the family's unit); "js:" stands for every "js:m", the partition of R_m.
_BASES = {
    "h2": ("hadamard", rigidity.h2_rank1_decomposition),
    "h3cube": ("hadamard", lambda ctx: rigidity.cube_rank1_decomposition(rigidity.hadamard_matrix(1, ctx))),
    "h4": ("hadamard", rigidity.h4_rank1_decomposition),
    "js:": ("disjointness", None),
}


def _base_factorization(family: str, name: str, n: int, depth: int, ctx: FieldCtx):
    """Resolve --base to the two-factorization of its base power; the
    digits it covers are read off its size by circuits.synthesize.

    'auto' is h4 for hadamard, the built-in Hadamard base with the lowest
    wire-growth exponent c, and js:min(max(1, n // d), disjoint.LIST_CAP)
    for disjointness: n // d digits, at most the partition cap.  A base
    of the other family is refused by its name; whether its operands
    multiply to the unit's power is for circuits.prove_power to decide.
    """
    if depth < 2:
        raise DimensionMismatch("depth must be at least 2")
    if name == "auto":
        name = _auto_base(family, n, depth)
    key = name
    if name.startswith("js:"):  # js:m for a whole number m >= 1
        key = "js:" if name[3:].isdecimal() and int(name[3:]) >= 1 else None
    if key not in _BASES:
        raise ValueError(f"unknown base {name!r}")
    base_family, decomposition = _BASES[key]
    if base_family != family:
        raise ValueError(f"{name} is a {base_family} base, not a {family} one")
    if decomposition is None:
        return disjoint.js_factorization(int(name[3:]), ctx)
    return circuits.two_factor_from_rigidity(decomposition(ctx))


def _auto_base(family: str, n: int, depth: int) -> str:
    """The base that --base auto names (see _base_factorization)."""
    return "h4" if family == "hadamard" else f"js:{min(max(1, n // depth), disjoint.LIST_CAP)}"


def _formula_bound(tf, unit, n: int, depth: int) -> float:
    """The formula bound d N^(1 + c/d) for a depth-d circuit of N = 2^n,
    c the base's tf.exponent.  When the base covers no digit (n below its
    digits times d), synthesize builds the butterfly, and c is the unit's
    own exponent log_q nnz(unit) - 1, whose bound is the butterfly's wires.
    CapExceeded beyond float range, before anything of size n is built."""
    if n < circuits.base_digits(tf, unit) * depth:
        exponent = math.log(unit.nnz, unit.rows) - 1
    else:
        exponent = tf.exponent
    try:
        bound = depth * (2.0**n) ** (1 + exponent / depth)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise CapExceeded(f"the formula bound for n = {n} is beyond float range")
    return bound


def _family_unit(family: str, ctx: FieldCtx):
    """The 2x2 matrix whose Kronecker powers make up the family."""
    if family == "hadamard":
        return rigidity.hadamard_matrix(1, ctx)
    return disjoint.disjointness_matrix(1, ctx)


@functools.cache
def _base_shapes(family: str):
    """Operand shapes of the family's built-in bases, which
    circuits.prove_power tries when it peels a layer read from a file.
    They do not depend on the field, so they are read once, over Q."""
    if family == "disjointness":
        return tuple((1 << m, 1 << m) for m in range(2, disjoint.LIST_CAP + 1))
    shapes = []
    for base_family, decomposition in _BASES.values():
        if base_family == family:
            tf = circuits.two_factor_from_rigidity(decomposition(RATIONALS))
            shapes += [(tf.q, tf.h), (tf.h, tf.q), (tf.h, tf.h)]
    return tuple(shapes)


def _synth_row(family: str, base: str, n: int, depth: int, ctx: FieldCtx):
    """(unit, circuit, trivial, formula_bound) of one synth, or None when
    depth does not divide n: trivial is the wires of the family's depth-d
    butterfly, n / depth digits per layer.  The base is resolved first, so
    a base of the other family fails whatever n is; the formula bound
    comes before anything of size n is built, so its cap stops a huge n."""
    tf = _base_factorization(family, base, n, depth, ctx)
    if n % depth:
        return None
    unit = _family_unit(family, ctx)
    formula_bound = _formula_bound(tf, unit, n, depth)
    circ = circuits.synthesize(tf, unit, n, depth)
    trivial = circuits.butterfly_circuit([unit] * n, n // depth).wires
    return unit, circ, trivial, formula_bound


def cmd_synth(args) -> int:
    built = _synth_row(args.family, args.base, args.n, args.depth, FieldCtx(args.field))
    if built is None:
        raise ValueError(f"n = {args.n} is not a multiple of depth {args.depth}")
    unit, circ, trivial, formula_bound = built
    if args.out:
        circ.check_caps()  # before anything is printed or built
    if not circuits.prove_power(circ, unit, args.n):
        print("error: the circuit was not proved equal to its target", file=sys.stderr)
        return EXIT_VERIFY
    if args.out:  # first: a failed write prints no summary
        circuits.save_circuit(circ, args.out)
    print(
        f"family={args.family} n={args.n} d={args.depth} wires={circ.wires} "
        f"trivial={trivial} formula_bound={formula_bound:.1f}"
    )
    return EXIT_OK


def _rebuilt(path, family: str, n: int):
    """The circuit in the file at path when its bytes are those synth
    writes for the family and n with some built-in base, and synth's proof
    holds for it; else None, and the file is left to the reader.

    Only the header is read to choose: its depth, shape, field and wires.
    Each base of the family, 'auto' first and js:m for m <= n // d only, is
    synthesized, skipped unless its wires are the header's, and its
    circuits._circuit_text compared with the file's bytes up to the end.
    parse_circuit reads _circuit_text(c) back as c, so equal bytes are
    the file's circuit.  A header past circuits.WIRE_CAP builds nothing,
    and a stream that cannot seek, such as a pipe, is not read.
    """
    try:
        fh = open(path, "rb")
    except OSError:  # the reader reports it
        return None
    with fh:
        if not fh.seekable():  # a pipe: its bytes are the reader's, unread
            return None
        header = fh.readline(1024).split()
        if len(header) != 6 or header[0] != b"circuit" or not all(x.isdigit() for x in header[1:]):
            return None
        depth, rows, cols, field, wires = map(int, header[1:])
        if wires > circuits.WIRE_CAP or depth < 2 or n % depth or (rows, cols) != (2**n, 2**n):
            return None
        try:
            ctx = FieldCtx(field)
        except ValueError:
            return None
        unit = _family_unit(family, ctx)
        if family == "hadamard":
            bases = [name for name, (base_family, _) in _BASES.items() if base_family == family]
        else:
            bases = [f"js:{m}" for m in range(1, min(n // depth, disjoint.LIST_CAP) + 1)]
        for base in dict.fromkeys([_auto_base(family, n, depth), *bases]):
            try:
                circ = circuits.synthesize(_base_factorization(family, base, n, depth, ctx), unit, n, depth)
                if circ.wires != wires:
                    continue
                circ.check_caps()  # as synth does before it writes
            except (ValueError, KronRigidError):
                continue
            fh.seek(0)
            if all(fh.read(len(chunk)) == chunk for chunk in circuits._circuit_text(circ)) and not fh.read(1):
                return circ if circuits.prove_power(circ, unit, n) else None
    return None


def cmd_verify(args) -> int:
    """Print whether the circuit file computes the family's n-th power.

    A file synth wrote is rebuilt and compared byte for byte (_rebuilt),
    at about synth's cost; its proof is synth's, on the operands.  Any
    other file is read whole and proved on its layers peeled into
    operands (method=structural), or else by the block check.
    """
    if args.n < 0:
        raise ValueError(f"verify needs n >= 0, not n = {args.n}")
    sparse.capped_power(2, args.n, "rows")  # before the n operands are listed
    circ = _rebuilt(args.circuit, args.family, args.n)
    ok, method = circ is not None, "structural"
    if not ok:
        circ = circuits.load_circuit(args.circuit)
        unit = _family_unit(args.family, circ.ctx)
        ok = circuits.prove_power(circ, unit, args.n, _base_shapes(args.family))
        if ok is None:
            ok, method = circuits.verify_circuit(circ, [unit] * args.n), "block"
    print(f"equal={ok} wires={circ.wires} depth={circ.depth} method={method}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_rigidity(args) -> int:
    m = sparse.load_matrix(args.matrix)
    if args.out and not m.is_square:  # before the search: the witness could not be written
        raise DimensionMismatch(f"a witness file holds a square matrix, not {m.rows}x{m.cols}")
    try:
        minimum, witness = rigidity.brute_force_rigidity(
            m, args.rank, args.max_changes
        )
    except ExceedsBound:
        print(f"no decomposition with at most {args.max_changes} changes")
        return EXIT_VERIFY
    if args.out:
        rigidity.save_witness(witness, args.out)
    print(minimum)
    return EXIT_OK


def cmd_batch(args) -> int:
    table = vf.load_truthtable(args.f)
    with open(args.points) as fh:
        points = vf.parse_points(fh.read())
    answers, ops = vf.batch_sums(table, points, convention=args.convention)
    if points:
        # each distinct point and its answer are formatted once
        distinct, slot = np.unique(np.array(points, dtype=np.int64), return_inverse=True)
        width = max(table.n, 1)  # f"{0:00b}" is "0"
        digits = (distinct[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8) + ord("0")
        column = np.array(list(map(answers.__getitem__, distinct.tolist())), table.ctx.dtype)
        lines = sparse._text_lines((digits.view(f"S{width}").ravel(), slot), (column, slot))
        sys.stdout.write(lines.decode())
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
    if args.n % args.k:  # before the q^n-entry probe is built
        raise DimensionMismatch(f"{args.k} rounds do not divide {args.n} factors")
    ctx = FieldCtx(args.field)
    h1 = rigidity.hadamard_matrix(1, ctx)
    # a round makes q^(n + n/k) products, no fewer than the probe or a round block holds
    sparse.capped_power(h1.rows, args.n + args.n // args.k, "scalar products per round")
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
        return range(start, stop + 1, step)
    return [int(x) for x in spec.split(",")]


def cmd_bench(args) -> int:
    ctx = FieldCtx(args.field)
    rows = []
    for n in _parse_range(args.n):
        for d in _parse_range(args.depth):
            built = _synth_row(args.family, args.base, n, d, ctx)
            if built is None:
                continue
            _, circ, trivial, formula_bound = built
            ratio = circ.wires / (2**n * n)
            rows.append(
                f"{args.family},{n},{2**n},{d},{args.base},{circ.wires},"
                f"{trivial},{formula_bound:.1f},{ratio:.6f}"
            )
    print("\n".join(["family,n,N,d,base,wires,trivial_wires,formula_bound,ratio_nlogn", *rows]))
    return EXIT_OK


@functools.cache
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

    p = sub.add_parser("verify", help="verify a circuit file against a family")
    p.add_argument("--circuit", required=True)
    p.add_argument("--family", choices=["hadamard", "disjointness"], required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("rigidity", help="brute-force minimum changes to rank r")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-changes", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("batch", help="batched sums of f over point pairs")
    p.add_argument("--f", required=True, help="truth-table file")
    p.add_argument("--points", required=True, help="bitstring-per-line file")
    p.add_argument("--convention", choices=["or", "and"], default="or")

    p = sub.add_parser("disjoint-stats", help="dense row/col removal stats")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["auto", "scan", "count"], default="auto")

    p = sub.add_parser("mmcost", help="matmul-round evaluation cost")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--backend", choices=["naive", "strassen"], default="naive")
    p.add_argument("--field", type=int, default=5)

    p = sub.add_parser("bench", help="CSV sweep over n/depth grids")
    p.add_argument("--family", choices=["hadamard", "disjointness"], required=True)
    p.add_argument("--n", required=True, help="a:b:step or comma list")
    p.add_argument("--depth", required=True, help="comma list")
    p.add_argument("--base", default="h4")
    p.add_argument("--field", type=int, default=5)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # cmd_* is looked up here, not bound in the cached parser, so a wrapper
    # or patch put on cli.cmd_* after the parser was built is what runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CapExceeded, MemoryError) as exc:  # out of memory is a cap the machine sets
        print(f"cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, KronRigidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
