import ast
import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kronrigid
from kronrigid import errors, sparse, vf
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.rigidity import hadamard_matrix

from test_cli import _child_env

# Names that were removed from the package; none may come back as an attribute.
REMOVED = [
    ("sparse", "IndexCodec"),
    ("sparse", "_matmul_rows"),
    ("vf", "vf_matrix_general"),
    ("fields", "DEFAULT_MODULUS"),
    ("disjoint", "js_partition"),
    ("disjoint", "RectPartition"),
    ("disjoint", "SQUARE"),
    ("disjoint", "RECT"),
    ("errors", "GroupMismatch"),
    ("rigidity", "_rank_at_most"),
    ("rigidity", "_inverse"),
    ("sparse", "_value_array"),
    ("sparse", "apply"),
    ("mmbridge", "_reduced"),
    ("mmbridge", "_dense"),
    ("fields", "sub_raw"),
    ("fields", "zero_raw"),
    ("fields", "one_raw"),
    ("circuits", "_expressions"),
    ("cli", "_butterfly_wires"),
    ("fields", "multiplicative_order"),
    *(("errors", name) for name in (
        "NotSquare", "DepthTooSmall", "DivisorMismatch", "LengthMismatch", "LengthNotPowerOfTwo",
        "OmegaZero", "DimensionCapExceeded", "NoRootExists", "UnverifiedInput",
    )),
]


def test_every_exported_name_resolves_once():
    assert len(kronrigid.__all__) == len(set(kronrigid.__all__))
    for name in kronrigid.__all__:
        assert getattr(kronrigid, name) is not None
    for module, name in REMOVED:
        assert not hasattr(importlib.import_module(f"kronrigid.{module}"), name)
        assert name not in kronrigid.__all__
    assert "report" not in vars(kronrigid.RigidityDecomposition)
    assert "entries" not in vars(kronrigid.SparseMatrix)
    assert "to_dense" not in vars(kronrigid.SparseMatrix)  # to_array, in the field's dtype
    assert "sub_raw" not in vars(kronrigid.FieldCtx)  # add_raw(x, -y)
    assert not {"zero_raw", "one_raw"} & set(vars(kronrigid.FieldCtx))  # 0 and 1 in every field
    assert "product" not in vars(kronrigid.SynchronousCircuit)  # a test oracle now
    assert kronrigid.SparseMatrix.__hash__ is None  # __eq__ without a hash


def test_every_cap_is_a_cap_exceeded():
    # cli.main turns this one class into exit 3; a dimension cap raises it itself
    assert issubclass(errors.WorkCapExceeded, errors.CapExceeded)
    assert not hasattr(errors, "DimensionCapExceeded")


def test_errors_has_one_type_per_kind_of_refusal():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {
        "KronRigidError", "ContextMismatch", "DivisionByZero", "RationalUnsupported",
        "DimensionMismatch", "CapExceeded", "WorkCapExceeded", "OuterZero", "ExceedsBound",
        "ModulusTooSmallWarning",
    }


def test_no_module_imports_a_name_it_does_not_use():
    for path in sorted(Path(kronrigid.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}  # attribute bases too
        assert imported <= used, (path.name, sorted(imported - used))


# Run in a fresh interpreter: every command, F_p synth, bench and the
# verify the proof decides among them, must load no scipy module; the verify
# of a file with one value changed, which falls to the block check, does.
_SCIPY_ON_DEMAND = """
import contextlib, io, sys
import kronrigid, kronrigid.cli
from kronrigid.cli import main

kronrigid.cli.build_parser()
tmp = sys.argv[1]
pts = ["--points", f"{tmp}/pts.txt"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


verify = ["verify", "--circuit", f"{tmp}/fp.circ", "--family", "hadamard", "--n", "8"]
runs = [
    ["batch", "--f", f"{tmp}/fp.tt", *pts],
    ["batch", "--f", f"{tmp}/q.tt", *pts],
    ["mmcost", "--n", "4", "--k", "2", "--backend", "naive"],
    ["mmcost", "--n", "4", "--k", "2", "--backend", "strassen"],
    ["disjoint-stats", "--n", "8", "--k", "3", "--method", "scan"],
    ["rigidity", "--matrix", f"{tmp}/h2.mat", "--rank", "1", "--max-changes", "4"],
    ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--field", "0", "--out", f"{tmp}/q.circ"],
    ["verify", "--circuit", f"{tmp}/q.circ", "--family", "hadamard", "--n", "8"],
    ["synth", "--family", "disjointness", "--n", "8", "--depth", "2", "--field", "0"],
    ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", f"{tmp}/fp.circ"],
    verify,
    ["synth", "--family", "disjointness", "--n", "12", "--depth", "3"],
    ["bench", "--family", "hadamard", "--n", "4,6", "--depth", "2"],
]
for argv in runs:
    code, out = run(argv)
    assert code == 0, argv
    assert argv[0] != "verify" or "method=structural" in out, out
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
lines = open(f"{tmp}/fp.circ").read().splitlines()
i, j, v = lines[-1].split()
lines[-1] = f"{i} {j} {2 * int(v) % 5}"  # one value changed
open(f"{tmp}/fp.circ", "w").write("\\n".join(lines) + "\\n")
code, out = run(verify)
assert code == 1 and "method=block" in out, (code, out)
assert "scipy.sparse" in sys.modules
"""


def test_scipy_is_loaded_only_by_the_block_check(tmp_path):
    vf.save_truthtable(vf.TruthTable(2, 2, FieldCtx(5), (1, 0, 3, 4)), tmp_path / "fp.tt")
    table = (Fraction(1, 2), 0, Fraction(-3), 2)
    vf.save_truthtable(vf.TruthTable(2, 2, RATIONALS, table), tmp_path / "q.tt")
    (tmp_path / "pts.txt").write_text("00\n01\n11\n")
    sparse.save_matrix(hadamard_matrix(2, FieldCtx(5)), tmp_path / "h2.mat")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_ON_DEMAND, str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
