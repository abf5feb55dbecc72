"""Fuzz the file readers and the integer arguments: truncated or mutated
matrix, truth-table and circuit files, and small or negative sizes, end
the CLI with an exit code, never a traceback; mutated witness files
(which no command reads) are read or rejected with ValueError or
KronRigidError."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronrigid import circuits, rigidity, sparse, vf
from kronrigid.cli import main
from kronrigid.errors import KronRigidError
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.sparse import SparseMatrix

F5 = FieldCtx(5)
EXIT_CODES = {0, 1, 2, 3}

# Edits of a valid file: cut it at a position, delete a short run of
# characters, or insert characters the formats are made of.  Insertions
# are short, so a declared shape grows to at most 7 digits and a run stays
# small; shapes beyond the dimension cap have their own test in test_cli.
CUT = st.tuples(st.just("cut"), st.integers(0, 2**16))
DELETE = st.tuples(st.just("del"), st.integers(0, 2**16), st.integers(1, 8))
INSERT = st.tuples(
    st.just("ins"), st.integers(0, 2**16), st.text("0123456789 -/\nfx", min_size=1, max_size=2)
)
EDITS = st.lists(st.one_of(CUT, DELETE, INSERT), min_size=1, max_size=3)


def mutate(text, edits):
    for edit in edits:
        at = edit[1] % (len(text) + 1)
        if edit[0] == "cut":
            text = text[:at]
        elif edit[0] == "del":
            text = text[:at] + text[at + edit[2]:]
        else:
            text = text[:at] + edit[2] + text[at:]
    return text


def _valid_files():
    q_matrix = SparseMatrix.from_dense([[Fraction(1, 2), 0], [-3, Fraction(-5, 7)]], RATIONALS)
    d2 = rigidity.h2_rank1_decomposition(F5)
    circ = circuits.synthesize(circuits.two_factor_from_rigidity(d2), d2.target, 2, 2)  # H_4
    return {
        "matrix": [sparse.dump_matrix(rigidity.hadamard_matrix(2, F5)), sparse.dump_matrix(q_matrix)],
        "truthtable": [
            vf.dump_truthtable(vf.TruthTable(2, 2, F5, (1, 0, 3, 4))),
            vf.dump_truthtable(vf.TruthTable(2, 2, RATIONALS, tuple(
                Fraction(v) for v in ("1/2", "0", "-3", "5/7")))),
        ],
        "circuit": [circuits.dump_circuit(circ)],
    }


VALID = _valid_files()


def _witness(ctx, b, c, s):
    b, c, s = (SparseMatrix.from_dense(x, ctx) for x in (b, c, s))
    return rigidity.dump_witness(
        rigidity.RigidityDecomposition(sparse.add_mat(sparse.matmul(b, c), s), 1, b, c, s)
    )


WITNESSES = [
    rigidity.dump_witness(rigidity.h2_rank1_decomposition(F5)),
    _witness(RATIONALS, [[1], [Fraction(1, 2)]], [[2, Fraction(-1, 3)]], [[0, 0], [0, Fraction(5, 7)]]),
]


def _argv(kind, path, points):
    if kind == "matrix":
        return ["rigidity", "--matrix", path, "--rank", "1", "--max-changes", "1"]
    if kind == "truthtable":
        return ["batch", "--f", path, "--points", points]
    return ["verify", "--circuit", path, "--family", "hadamard", "--n", "4"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "points.txt").write_text("00\n01\n11\n")
    return d


def test_the_unmutated_files_are_valid():
    for text in VALID["matrix"]:
        sparse.parse_matrix(text)
    for text in VALID["truthtable"]:
        vf.parse_truthtable(text)
    for text in VALID["circuit"]:
        circuits.parse_circuit(text)
    for text in WITNESSES:
        rigidity.parse_witness(text)


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_ends_with_an_exit_code(workdir, kind, data):
    text = data.draw(st.sampled_from(VALID[kind]))
    path = workdir / f"fuzz_{kind}"
    path.write_text(mutate(text, data.draw(EDITS)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(_argv(kind, str(path), str(workdir / "points.txt")))
    assert rc in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(text=st.sampled_from(WITNESSES), edits=EDITS)
def test_mutated_witness_is_read_or_rejected(text, edits):
    try:
        rigidity.parse_witness(mutate(text, edits))
    except (ValueError, KronRigidError):
        pass


# -- integer arguments ----------------------------------------------------

ARG = st.integers(-3, 8)
COMMANDS = ["synth", "bench", "mmcost", "disjoint-stats", "rigidity", "verify-F5", "verify-Q"]


@pytest.fixture(scope="module")
def arg_files(workdir):
    files = {"rigidity": workdir / "f3.mat", "verify-F5": workdir / "one_f5.circ",
             "verify-Q": workdir / "one_q.circ"}
    files["rigidity"].write_text("2 2 3\n0 0 1\n0 1 2\n1 1 1\n")
    for name, field in (("verify-F5", 5), ("verify-Q", 0)):
        files[name].write_text(f"circuit 1 1 1 {field} 1\nfactor 0 1 1 1\n0 0 1\n")
    return {name: str(path) for name, path in files.items()}


def _int_argv(command, family, a, b, files):
    """argv of command with the integers a and b in its integer options."""
    if command in ("synth", "bench"):
        return [command, "--family", family, f"--n={a}", f"--depth={b}", "--base", "auto"]
    if command in ("mmcost", "disjoint-stats"):
        return [command, f"--n={a}", f"--k={b}"]
    if command == "rigidity":
        return [command, "--matrix", files[command], f"--rank={a}", f"--max-changes={b}"]
    return ["verify", "--circuit", files[command], "--family", family, f"--n={a}"]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS), family=st.sampled_from(["hadamard", "disjointness"]),
       a=ARG, b=ARG)
@example(command="verify-Q", family="hadamard", a=0, b=0)
def test_integer_arguments_end_with_an_exit_code(arg_files, command, family, a, b):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(_int_argv(command, family, a, b, arg_files))
    assert rc in EXIT_CODES
