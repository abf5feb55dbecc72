"""Output checks for the benchmark, written without any kronrigid code.

Every op the benchmark times is checked here afterwards, outside the timed
region: circuit files are read with this module's own reader and tested
with a Freivalds product check against fast reference transforms, batch
answers against an independent subset-sum computation, and the small
algebra commands against pinned values and closed forms.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Per-factor nnz of every circuit the workloads synthesize, keyed by
# (family, n, depth, base).  The wire count is their sum.
PINNED_CIRCUITS = {
    ("hadamard", 16, 4, "h4"): (917504, 974848, 974848, 917504),
    ("disjointness", 16, 2, "js:8"): (1372105, 1372105),
    ("disjointness", 16, 4, "js:4"): (304384, 304384, 304384, 304384),
    ("disjointness", 16, 2, "js:4"): (1413721, 1413721),
    ("hadamard", 12, 2, "h2"): (262144, 262144),
    ("hadamard", 12, 3, "h2"): (65536, 102400, 65536),
    ("hadamard", 4, 2, "h2"): (64, 64),
    ("hadamard", 6, 3, "h2"): (256, 320, 256),
    ("hadamard", 8, 2, "h2"): (4096, 4096),
    ("hadamard", 8, 4, "h2"): (1024, 1280, 1280, 1024),
    ("hadamard", 8, 2, "h4"): (3584, 3584),
    ("hadamard", 12, 3, "h4"): (57344, 60928, 57344),
    ("hadamard", 6, 2, "h3cube"): (480, 480),
    ("hadamard", 9, 3, "h3cube"): (3840, 4320, 3840),
    ("hadamard", 12, 4, "h3cube"): (30720, 34560, 34560, 30720),
    ("disjointness", 4, 2, "js:1"): (36, 36),
    ("disjointness", 6, 2, "js:3"): (204, 204),
    ("disjointness", 6, 3, "js:2"): (140, 140, 140),
    ("disjointness", 8, 2, "js:4"): (1189, 1189),
    ("disjointness", 8, 4, "js:2"): (560, 560, 560, 560),
    ("disjointness", 9, 3, "js:3"): (1632, 1632, 1632),
    ("disjointness", 10, 2, "js:5"): (6930, 6930),
    ("disjointness", 12, 2, "js:6"): (40391, 40391),
    ("disjointness", 12, 3, "js:4"): (19024, 19024, 19024),
}

# `mmcost` rows (mults, adds) keyed by (n, k, backend), for q = 2.
PINNED_MMCOST = {
    (8, 2, "naive"): (8192, 7680),
    (8, 2, "strassen"): (69632, 65280),
    (9, 3, "naive"): (12288, 10752),
    (9, 3, "strassen"): (266240, 272896),
    (10, 2, "naive"): (65536, 63488),
    (10, 2, "strassen"): (1081344, 1047552),
}

# `disjoint-stats` rows (removed, residual_row_nnz, bound) keyed by (n, k).
PINNED_DSTATS = {
    (14, 6): (3473, 37, 37),
    (16, 8): (26333, 1, 1),
}

STRASSEN_THRESHOLD = 32


class CheckFailed(Exception):
    """An op's output disagrees with the independent check."""


def require(cond, why):
    if not cond:
        raise CheckFailed(why)


# -- primes ---------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e9 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    """The first prime at or above a uniform odd draw from [lo, hi].

    hi must itself be prime so the upward search stays in range.
    """
    x = rng.randrange(lo, hi + 1) | 1
    while not is_prime(x):
        x += 2
    return x


# -- butterfly transforms on (N, k) arrays ----------------------------------


def _levels(x: np.ndarray, step, p):
    """Apply step(lo, hi) -> (lo', hi') across every bit of the row index."""
    size = x.shape[0]
    cols = x.shape[1]
    y = x.copy()
    h = 1
    while h < size:
        y = y.reshape(size // (2 * h), 2, h, cols)
        lo, hi = step(y[:, 0], y[:, 1])
        if p:
            lo, hi = lo % p, hi % p
        y = np.stack((lo, hi), axis=1).reshape(size, cols)
        h *= 2
    return y


def walsh_hadamard(x, p):
    """H_n x mod p by Yates' method, H_n = [[1, 1], [1, -1]]^(kron n)."""
    return _levels(x, lambda lo, hi: (lo + hi, lo - hi), p)


def subset_zeta(x, p=None):
    """g[z] = sum of x[y] over y subset of z."""
    return _levels(x, lambda lo, hi: (lo, hi + lo), p)


def subset_mobius(x, p=None):
    return _levels(x, lambda lo, hi: (lo, hi - lo), p)


def superset_zeta(x, p=None):
    """g[z] = sum of x[y] over y superset of z."""
    return _levels(x, lambda lo, hi: (lo + hi, hi), p)


def superset_mobius(x, p=None):
    return _levels(x, lambda lo, hi: (lo - hi, hi), p)


def disjointness_apply(x, p):
    """R_n x mod p, R_n[a, b] = 1 iff a AND b = 0: a subset-sum over ~a."""
    return subset_zeta(x, p)[::-1]


REFERENCE = {"hadamard": walsh_hadamard, "disjointness": disjointness_apply}


# -- circuit files ------------------------------------------------------------
#
# Header `circuit depth rows cols field wires`; per factor a line
# `factor idx rows cols nnz` and then one `i j v` line per entry.


class Circuit:
    def __init__(self, field, factors):
        self.field = field
        self.factors = factors  # scipy CSR, int64 residues

    @property
    def per_factor_nnz(self):
        return tuple(int(f.nnz) for f in self.factors)


def _ints(body: bytes) -> np.ndarray:
    if not body.strip():
        return np.zeros(0, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.fromstring(body, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning) as exc:
            raise CheckFailed(f"unparsable factor body: {exc}") from None


def read_circuit(path) -> Circuit:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    head = data[:nl].split()
    require(len(head) == 6 and head[0] == b"circuit", "bad circuit header")
    depth, rows, cols, field, wires = (int(x) for x in head[1:])
    require(field > 2 and is_prime(field), f"field {field} is not an odd prime")
    pos = nl + 1
    factors = []
    for idx in range(depth):
        nl = data.find(b"\n", pos)
        require(nl > 0, f"missing factor {idx}")
        fh = data[pos:nl].split()
        require(len(fh) == 5 and fh[0] == b"factor" and int(fh[1]) == idx,
                f"bad header of factor {idx}")
        frows, fcols, nnz = (int(x) for x in fh[2:])
        end = data.find(b"\nfactor ", nl)
        end = len(data) if end < 0 else end + 1
        nums = _ints(data[nl + 1:end])
        require(nums.size == 3 * nnz, f"factor {idx}: {nums.size // 3} entries, header says {nnz}")
        i, j, v = nums.reshape(-1, 3).T
        require(nnz == 0 or (i.min() >= 0 and i.max() < frows
                             and j.min() >= 0 and j.max() < fcols),
                f"factor {idx}: index out of range")
        require(nnz == 0 or (v.min() > 0 and v.max() < field),
                f"factor {idx}: value is not a nonzero residue")
        cells = np.sort(i * fcols + j)
        require(bool(np.all(cells[1:] != cells[:-1])), f"factor {idx}: duplicate entry")
        factors.append(sp.csr_matrix((v, (i, j)), shape=(frows, fcols), dtype=np.int64))
        pos = end
    require(factors and factors[0].shape[0] == rows and factors[-1].shape[1] == cols,
            "outer dimensions disagree with the header")
    for a, b in zip(factors, factors[1:]):
        require(a.shape[1] == b.shape[0], "factor chain does not compose")
    require(sum(f.nnz for f in factors) == wires, "header wire count disagrees")
    return Circuit(field, factors)


def write_circuit(path, field, factors) -> None:
    """Write (rows, cols, i, j, v) factors in the circuit text format."""
    wires = sum(len(f[4]) for f in factors)
    rows, cols = factors[0][0], factors[-1][1]
    with open(path, "w") as fh:
        fh.write(f"circuit {len(factors)} {rows} {cols} {field} {wires}\n")
        for idx, (fr, fc, i, j, v) in enumerate(factors):
            fh.write(f"factor {idx} {fr} {fc} {len(v)}\n")
            order = np.lexsort((j, i))
            tri = np.stack((i[order], j[order], v[order]), axis=1)
            np.savetxt(fh, tri, fmt="%d")


def butterfly_factors(family: str, n: int, d: int, p: int):
    """The grouped butterfly I (x) M^(kron n/d) (x) I, factor by factor."""
    g = n // d
    block = 1 << g
    x, y = np.meshgrid(np.arange(block), np.arange(block), indexing="ij")
    x, y = x.ravel(), y.ravel()
    if family == "hadamard":
        parity = np.zeros_like(x)
        for bit in range(g):
            parity ^= ((x & y) >> bit) & 1
        keep = np.ones(x.size, dtype=bool)
        val = np.where(parity == 1, p - 1, 1)
    else:
        keep = (x & y) == 0
        val = np.ones(x.size, dtype=np.int64)
    x, y, val = x[keep], y[keep], val[keep]
    size = 1 << n
    out = []
    for ell in range(d):
        right = 1 << (n - g * (ell + 1))
        left = size // (block * right)
        a, b, t = np.meshgrid(np.arange(left), np.arange(right), np.arange(x.size),
                              indexing="ij")
        a, b, t = a.ravel(), b.ravel(), t.ravel()
        i = (a * block + x[t]) * right + b
        j = (a * block + y[t]) * right + b
        out.append((size, size, i, j, val[t]))
    return out


def _mulmod(a, x, p):
    """a @ x mod p without int64 overflow: x is split in 16-bit limbs."""
    fan_in = np.diff(a.indptr)
    require(fan_in.size == 0 or fan_in.max() < 1 << 16, "row too dense for limb product")
    lo = x & 0xFFFF
    hi = x >> 16
    return ((a @ hi) % p * 65536 + (a @ lo) % p) % p


def freivalds_vectors(p: int) -> int:
    """k with p^-k <= 2^-64: the false-accept bound of k random vectors."""
    return math.ceil(64 / math.log2(p))


def freivalds(circ: Circuit, family: str, n: int, seed: int) -> bool:
    """Does the factor chain multiply to the family's 2^n transform mod p?"""
    p = circ.field
    size = 1 << n
    require(circ.factors[0].shape[0] == size and circ.factors[-1].shape[1] == size,
            f"circuit is not {size}x{size}")
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=(size, freivalds_vectors(p)), dtype=np.int64)
    y = x
    for f in reversed(circ.factors):
        y = _mulmod(f, y, p)
    return bool(np.array_equal(y, REFERENCE[family](x, p)))


# -- per-command checks -------------------------------------------------------


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


def check_synth(spec, res):
    fam, n, d, base = spec["config"]
    require(res["rc"] == 0, f"exit {res['rc']}")
    per = PINNED_CIRCUITS[(fam, n, d, base)]
    out = _fields(res["stdout"].strip())
    require(out.get("family") == fam and int(out["n"]) == n and int(out["d"]) == d,
            "synth echoed another configuration")
    require(int(out["wires"]) == sum(per), f"wires {out['wires']} != {sum(per)}")
    circ = read_circuit(spec["path"])
    require(circ.field == spec["p"], f"file field {circ.field} != {spec['p']}")
    require(circ.per_factor_nnz == per, f"per-factor nnz {circ.per_factor_nnz} != {per}")
    require(freivalds(circ, fam, n, spec["check_seed"]), "Freivalds check failed")


def check_verify(spec, res):
    want = spec["expect_rc"]
    require(res["rc"] == want, f"exit {res['rc']}, expected {want}")
    if want == 2:  # unreadable input: the exit code is the whole answer
        return
    out = _fields(res["stdout"].strip())
    require(out.get("equal") == ("True" if want == 0 else "False"),
            f"equal={out.get('equal')}")
    require(int(out["wires"]) == spec["wires"], f"wires {out['wires']} != {spec['wires']}")


def batch_reference(values, points, convention, p):
    """Sum over the point multiset of f(s OR t) (or f(s AND t)) for each s.

    OR: with f(z) = sum over w superset of z of b(w), the answer at s is the
    superset sum of b(w) * #{t subset of w}.  AND is the mirror image with
    subset sums.  Exact in int64 for F_p (p < 2^31) and for the small integer
    tables used over Q.
    """
    f = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    count = np.bincount(np.asarray(points), minlength=f.shape[0])
    count = count.astype(np.int64).reshape(-1, 1)
    mod = p or None
    if convention == "or":
        mid = superset_mobius(f, mod) * subset_zeta(count, mod)
        ans = superset_zeta(mid % p if p else mid, mod)
    else:
        mid = subset_mobius(f, mod) * superset_zeta(count, mod)
        ans = subset_zeta(mid % p if p else mid, mod)
    return ans.ravel()


def check_batch(spec, res):
    require(res["rc"] == 0, f"exit {res['rc']}")
    n, p = spec["n"], spec["p"]
    points = spec["points"]
    want = batch_reference(spec["values"], points, spec["convention"], p)
    lines = res["stdout"].splitlines()
    require(len(lines) == len(points), f"{len(lines)} answers for {len(points)} points")
    for line, s in zip(lines, points):
        bits, val = line.split()
        require(bits == format(s, f"0{n}b"), f"answer for {bits}, expected {s:0{n}b}")
        got = Fraction(val)
        require(got == int(want[s]), f"point {bits}: {got} != {int(want[s])}")


def _read_matrix_block(text: str):
    lines = [ln.split() for ln in text.strip().splitlines()]
    rows, cols, field = (int(x) for x in lines[0])
    dense = [[0] * cols for _ in range(rows)]
    for i, j, v in lines[1:]:
        dense[int(i)][int(j)] = int(v) % field
    return dense


def check_rigidity(spec, res):
    require(res["rc"] == 0, f"exit {res['rc']}")
    require(res["stdout"].strip() == "4", f"minimum {res['stdout'].strip()!r}, expected 4")
    text = Path(spec["witness"]).read_text()
    head, rest = text.split("\n", 1)
    tag, q, r, changes, field = head.split()
    p = spec["p"]
    require(tag == "rigidity" and (int(q), int(r), int(changes), int(field)) == (4, 1, 4, p),
            f"witness header {head!r}")
    b, c, s = (_read_matrix_block(block) for block in rest.split("---"))
    require(len(b[0]) == 1 and len(c) == 1, "low-rank part is not an outer product")
    require(sum(1 for row in s for v in row if v) == 4, "sparse part does not have 4 entries")
    for i in range(4):
        for j in range(4):
            h = (-1) ** bin(i & j).count("1") % p
            require((b[i][0] * c[0][j] + s[i][j]) % p == h, f"witness wrong at ({i}, {j})")


def strassen_cost(size: int):
    """(mults, adds) of the padded Strassen recursion on size x size."""
    if size <= STRASSEN_THRESHOLD:
        return size**3, size * size * (size - 1)
    m, a = strassen_cost(size // 2)
    return 7 * m, 7 * a + 18 * (size // 2) ** 2


def mmcost_closed_form(n: int, k: int, backend: str):
    """Operation counts of k rounds of reshaped products on 2^n points."""
    big_n = 1 << n
    block = 1 << (n // k)
    if backend == "naive":
        return k * big_n * block, k * big_n * (block - 1)
    mults = adds = 0
    for ell in range(k):
        left = block**ell
        right = big_n // (left * block)
        m, a = strassen_cost(1 << max(n // k, right.bit_length() - 1))
        mults += left * m
        adds += left * a
    return mults, adds


def check_mmcost(spec, res):
    require(res["rc"] == 0, f"exit {res['rc']}")
    n, k, backend = spec["n"], spec["k"], spec["backend"]
    head, row = res["stdout"].strip().splitlines()
    require(head == "q,n,k,backend,mults,adds,dense_mults", f"header {head!r}")
    q, rn, rk, rb, mults, adds, dense = row.split(",")
    require((q, int(rn), int(rk), rb) == ("2", n, k, backend), f"row {row!r}")
    got = (int(mults), int(adds))
    require(got == mmcost_closed_form(n, k, backend), f"{got} != closed form")
    require(got == PINNED_MMCOST[(n, k, backend)], f"{got} != pinned")
    require(int(dense) == 4**n, f"dense_mults {dense} != {4 ** n}")


def dstats_closed_form(n: int, k: int):
    """removed rows, densest residual row, and the rank bound, via comb."""
    removed = sum(math.comb(n, i) for i in range(k))
    residual = sum(math.comb(n - k, j) for j in range(k, n - k + 1))
    bound = sum(math.comb(n - k, i) for i in range(n - 2 * k + 1))
    return removed, residual, bound


def check_dstats(spec, res):
    require(res["rc"] == 0, f"exit {res['rc']}")
    n, k = spec["n"], spec["k"]
    head, row = res["stdout"].strip().splitlines()
    require(head == "n,k,removed,residual_row_nnz,residual_col_nnz,bound", f"header {head!r}")
    rn, rk, removed, rows, cols, bound = (int(x) for x in row.split(","))
    require((rn, rk) == (n, k) and rows == cols, f"row {row!r}")
    got = (removed, rows, bound)
    require(got == dstats_closed_form(n, k), f"{got} != closed form")
    require(got == PINNED_DSTATS[(n, k)], f"{got} != pinned")


def check_bench(spec, res):
    """The `bench` formula CSV must agree with the pinned wire count."""
    require(res["rc"] == 0, f"exit {res['rc']}")
    fam, n, d, base = spec["config"]
    rows = [ln.split(",") for ln in res["stdout"].strip().splitlines()[1:]]
    require(len(rows) == 1, f"{len(rows)} bench rows")
    row = rows[0]
    require((row[0], int(row[1]), int(row[3]), row[4]) == (fam, n, d, base), f"row {row}")
    require(int(row[5]) == sum(PINNED_CIRCUITS[(fam, n, d, base)]),
            f"bench wires {row[5]} != pinned")


CHECKS = {
    "synth": check_synth,
    "verify": check_verify,
    "batch": check_batch,
    "rigidity": check_rigidity,
    "mmcost": check_mmcost,
    "dstats": check_dstats,
    "bench": check_bench,
}


def check(spec, res):
    """None when the op's result passes its check, else the reason."""
    if res.get("exc"):
        return f"uncaught {res['exc']}"
    try:
        CHECKS[spec["kind"]](spec, res)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
