import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

import kronrigid
from kronrigid import cli, sparse, vf
from kronrigid.circuits import butterfly_circuit
from kronrigid.cli import main
from kronrigid.disjoint import disjointness_matrix
from kronrigid.errors import ModulusTooSmallWarning
from kronrigid.fields import FieldCtx
from kronrigid.rigidity import hadamard_matrix
from kronrigid.vf import TruthTable

from reference import batch_sums_oracle

F5 = FieldCtx(5)


def test_synth_summary_line(capsys):
    rc = main(["synth", "--family", "hadamard", "--n", "8", "--depth", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family=hadamard n=8 d=2 wires=7168 trivial=8192" in out


def test_synth_verify_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "h8.circ")
    assert main(
        ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", path]
    ) == 0
    capsys.readouterr()
    rc = main(["verify", "--circuit", path, "--family", "hadamard", "--n", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "equal=True" in out


def test_verify_tampered_circuit(tmp_path, capsys):
    path = tmp_path / "h8.circ"
    assert main(
        [
            "synth", "--family", "hadamard", "--n", "8",
            "--depth", "2", "--out", str(path),
        ]
    ) == 0
    lines = path.read_text().splitlines()
    # flip the value on the last triplet line
    i, j, v = lines[-1].split()
    lines[-1] = f"{i} {j} {(int(v) % 5) % 4 + 1 if int(v) % 5 != 1 else 2}"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--circuit", str(path), "--family", "hadamard", "--n", "8"])
    assert rc == 1
    assert "equal=False" in capsys.readouterr().out


def test_synth_disjointness(tmp_path, capsys):
    path = str(tmp_path / "r8.circ")
    assert main(
        [
            "synth", "--family", "disjointness", "--n", "8",
            "--depth", "2", "--out", path,
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "wires=2378" in out
    assert main(["verify", "--circuit", path, "--family", "disjointness", "--n", "8"]) == 0


def test_rigidity_command(tmp_path, capsys):
    mat = tmp_path / "h2.mat"
    wit = tmp_path / "h2.rig"
    sparse.save_matrix(hadamard_matrix(2, F5), mat)
    rc = main(
        [
            "rigidity", "--matrix", str(mat), "--rank", "1",
            "--max-changes", "4", "--out", str(wit),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"
    assert wit.read_text().startswith("rigidity 4 1 4 5")


# `rigidity --rank 1 --max-changes 4 --out` of H_2, as written before the
# search skipped the patterns that miss a nonsingular 2-minor
H2_WITNESS = {
    3: (
        "rigidity 4 1 4 3\n"
        "4 1 3\n"
        "0 0 2\n"
        "1 0 1\n"
        "2 0 1\n"
        "3 0 1\n"
        "---\n"
        "1 4 3\n"
        "0 0 1\n"
        "0 1 2\n"
        "0 2 2\n"
        "0 3 2\n"
        "---\n"
        "4 4 3\n"
        "0 0 2\n"
        "1 2 2\n"
        "2 1 2\n"
        "3 3 2\n"
    ),
    5: (
        "rigidity 4 1 4 5\n"
        "4 1 5\n"
        "0 0 4\n"
        "1 0 1\n"
        "2 0 1\n"
        "3 0 1\n"
        "---\n"
        "1 4 5\n"
        "0 0 1\n"
        "0 1 4\n"
        "0 2 4\n"
        "0 3 4\n"
        "---\n"
        "4 4 5\n"
        "0 0 2\n"
        "1 2 2\n"
        "2 1 2\n"
        "3 3 2\n"
    ),
}


@pytest.mark.parametrize("p", [3, 5])
def test_rigidity_witness_of_h2_is_byte_stable(tmp_path, capsys, p):
    mat, wit = tmp_path / "h2.mat", tmp_path / "h2.rig"
    sparse.save_matrix(hadamard_matrix(2, FieldCtx(p)), mat)
    argv = ["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "4", "--out", str(wit)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "4\n"
    assert wit.read_bytes() == H2_WITNESS[p].encode()


def test_rigidity_witness_of_a_non_square_matrix_is_refused_first(tmp_path, capsys):
    mat, wit = tmp_path / "wide.mat", tmp_path / "wide.rig"
    mat.write_text("2 3 5\n0 0 1\n0 1 2\n1 2 3\n")
    argv = ["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "2"]
    assert main(argv + ["--out", str(wit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not wit.exists()


@pytest.mark.parametrize("command", ["synth", "rigidity"])
def test_a_failed_out_write_prints_no_result(tmp_path, capsys, command):
    mat, out = tmp_path / "h2.mat", tmp_path / "missing" / "out"
    sparse.save_matrix(hadamard_matrix(2, F5), mat)
    argv = {
        "synth": ["synth", "--family", "hadamard", "--n", "4", "--depth", "2", "--base", "h2"],
        "rigidity": ["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "4"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not out.exists()


def test_rigidity_bound_too_small(tmp_path, capsys):
    mat = tmp_path / "h2.mat"
    sparse.save_matrix(hadamard_matrix(2, F5), mat)
    rc = main(["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "3"])
    assert rc == 1
    assert "no decomposition" in capsys.readouterr().out


@pytest.mark.parametrize("rank,changes", [(-1, 0), (1, -1)])
def test_rigidity_negative_bounds_are_usage_errors(tmp_path, capsys, rank, changes):
    mat = tmp_path / "h2.mat"
    sparse.save_matrix(hadamard_matrix(2, F5), mat)
    argv = ["rigidity", "--matrix", str(mat), "--rank", str(rank), "--max-changes", str(changes)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_rigidity_work_counts_matrix_cells(tmp_path, capsys):
    # 4 x 4000 has 16001 one-change candidates, each an elimination of
    # 16000 cells: over the cap, though the candidate count alone is not
    mat = tmp_path / "wide.mat"
    text = sparse.dump_matrix(hadamard_matrix(2, F5))
    mat.write_text("4 4000 5\n" + text.split("\n", 1)[1])
    rc = main(["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "1"])
    assert rc == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_rigidity_budget_beyond_the_cells_is_the_whole_search(tmp_path, capsys):
    # no pattern changes more than the 4 cells: a budget of 10^9 changes
    # costs no more than one of 4
    mat = tmp_path / "f3.mat"
    mat.write_text("2 2 3\n0 0 1\n0 1 2\n1 1 1\n")
    argv = ["rigidity", "--matrix", str(mat), "--rank", "0", "--max-changes"]
    assert main(argv + ["4"]) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "kronrigid.cli", *argv, "1000000000"],
                          capture_output=True, text=True, env=_child_env(), timeout=10)
    assert proc.returncode == 0 and proc.stdout == want == "3\n"


@pytest.mark.parametrize("header,rc", [("4294967296 4 5", 3), ("4 -1 5", 2)])
def test_matrix_shape_out_of_range(tmp_path, capsys, header, rc):
    mat = tmp_path / "bad.mat"
    mat.write_text(header + "\n0 0 1\n")
    assert main(["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "0"]) == rc
    assert capsys.readouterr().err.startswith(("error:", "cap exceeded:"))


@pytest.mark.parametrize("text", [
    "", "truthtable 2 1 0\n1/0\n3\n", "truthtable 0 2 5\n1\n", "truthtable 2 -1 5\n1\n",
])
def test_bad_truth_table_is_a_usage_error(tmp_path, capsys, text):
    ftab, pts = tmp_path / "f.tt", tmp_path / "pts.txt"
    ftab.write_text(text)
    pts.write_text("0\n")
    assert main(["batch", "--f", str(ftab), "--points", str(pts)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_truth_table_beyond_the_cap_exits_at_once(tmp_path, capsys):
    # 3^40000000 values: the header alone must end the run
    ftab, pts = tmp_path / "f.tt", tmp_path / "pts.txt"
    ftab.write_text("truthtable 3 40000000 5\n1\n")
    pts.write_text("0\n")
    start = time.perf_counter()
    assert main(["batch", "--f", str(ftab), "--points", str(pts)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("cap exceeded:")


def test_zero_denominator_in_a_matrix_is_a_usage_error(tmp_path, capsys):
    mat = tmp_path / "q.mat"
    mat.write_text("2 2 0\n0 0 1/0\n")
    assert main(["rigidity", "--matrix", str(mat), "--rank", "1", "--max-changes", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_batch_command(tmp_path, capsys):
    f = TruthTable(2, 2, F5, (1, 0, 0, 0))
    ftab = tmp_path / "f.tt"
    pts = tmp_path / "pts.txt"
    vf.save_truthtable(f, ftab)
    pts.write_text("00\n01\n")
    rc = main(["batch", "--f", str(ftab), "--points", str(pts)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines() == ["00 1", "01 0"]
    assert captured.err.startswith("adds=")


def _batch(tmp_path, f, text, convention="or"):
    ftab, pts = tmp_path / "f.tt", tmp_path / "pts.txt"
    vf.save_truthtable(f, ftab)
    pts.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusTooSmallWarning)
        return main(["batch", "--f", str(ftab), "--points", str(pts), "--convention", convention])


@pytest.mark.parametrize("convention", ["or", "and"])
@pytest.mark.parametrize("field", [3, 5, 2**31 - 1, 0])
def test_batch_prints_the_oracle_sums(tmp_path, capsys, field, convention):
    ctx, rng = FieldCtx(field), random.Random(field)
    draw = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))) if not field else (
        lambda: rng.randrange(field))
    f = TruthTable(2, 4, ctx, tuple(ctx.coerce(draw()) for _ in range(16)))
    # unsorted, repeated, 0b0101 three times: its count is 0 mod 3
    points = [0b1011, 0b0001, 0b0101, 0b1011, 0b0110, 0b0101, 0b0000, 0b1111, 0b0001, 0b0101]
    text = "".join(f" {s:04b}\n" for s in points[:-1]) + "\n000101\n"
    assert _batch(tmp_path, f, text, convention) == 0
    want = batch_sums_oracle(f, points, convention)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{s:04b} {want[s]}" for s in points]
    assert captured.err == "adds=64 mults=16\n"


def test_batch_with_no_bits_prints_one_digit(tmp_path, capsys):
    assert _batch(tmp_path, TruthTable(2, 0, F5, (3,)), "0\n000\n") == 0
    assert capsys.readouterr().out == "0 1\n0 1\n"


def test_batch_with_no_points_prints_nothing(tmp_path, capsys):
    assert _batch(tmp_path, TruthTable(2, 2, F5, (1, 0, 0, 0)), "\n \n") == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "adds=8 mults=4\n"


def test_batch_names_the_first_point_out_of_range(tmp_path, capsys):
    assert _batch(tmp_path, TruthTable(2, 2, F5, (1, 0, 0, 0)), "01\n111\n100\n") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: point 7 does not fit in 2 bits\n"


@pytest.mark.parametrize("line", ["0b11", "1_0", "+1", "-1"])
def test_batch_refuses_a_point_that_is_not_a_bitstring(tmp_path, capsys, line):
    ftab, pts = tmp_path / "f.tt", tmp_path / "pts.txt"
    vf.save_truthtable(TruthTable(2, 2, F5, (1, 0, 0, 0)), ftab)
    pts.write_text(f"00\n {line}\n")
    assert main(["batch", "--f", str(ftab), "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: not a bitstring: {line!r}\n"


def test_disjoint_stats_csv(capsys):
    rc = main(["disjoint-stats", "--n", "14", "--k", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,removed,residual_row_nnz,residual_col_nnz,bound"
    assert lines[1] == "14,6,3473,37,37,37"


def test_disjoint_stats_scan_beyond_the_cap_exits_at_once(capsys):
    # the scan holds 2^n entries: n = 40 is refused before any is allocated
    start = time.perf_counter()
    assert main(["disjoint-stats", "--n", "40", "--k", "5", "--method", "scan"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cap exceeded:")


def test_disjoint_stats_scan_refuses_a_huge_n_before_its_sums():
    # the bound column sums about n binomials: n = 10^9 is refused first
    proc = subprocess.run(
        [sys.executable, "-m", "kronrigid.cli", "disjoint-stats", "--n", "1000000000", "--k", "3",
         "--method", "scan"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 3 and proc.stderr.startswith("cap exceeded:")


def test_disjoint_stats_past_the_int_to_str_limit_is_a_cap(capsys):
    start = time.perf_counter()
    assert main(["disjoint-stats", "--n", "100000", "--k", "50000"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cap exceeded:")


def test_mmcost_checks_its_divisor_before_the_probe():
    # 2^24 probe entries would take seconds to build before the divisor check
    proc = subprocess.run(
        [sys.executable, "-m", "kronrigid.cli", "mmcost", "--n", "24", "--k", "5"],
        capture_output=True, text=True, env=_child_env(), timeout=5,
    )
    assert proc.returncode == 2 and proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_mmcost_csv(capsys):
    rc = main(["mmcost", "--n", "8", "--k", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,n,k,backend,mults,adds,dense_mults"
    assert lines[1] == "2,8,2,naive,8192,7680,65536"


@pytest.mark.parametrize(
    "row",
    [
        "2,8,2,naive,8192,7680,65536",
        "2,8,2,strassen,69632,65280,65536",
        "2,9,3,naive,12288,10752,262144",
        "2,9,3,strassen,266240,272896,262144",
        "2,10,2,naive,65536,63488,1048576",
        "2,10,2,strassen,1081344,1047552,1048576",
    ],
)
def test_mmcost_csv_rows(capsys, row):
    _, n, k, backend = row.split(",")[:4]
    rc = main(["mmcost", "--n", n, "--k", k, "--backend", backend])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,n,k,backend,mults,adds,dense_mults"
    assert lines[1] == row


@pytest.mark.parametrize("n, k", [(0, 1), (-3, 1), (8, 0), (8, -2)])
def test_mmcost_needs_positive_n_and_k(capsys, n, k):
    assert main(["mmcost", "--n", str(n), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_mmcost_rect_exponent_note(capsys):
    rc = main(["mmcost", "--n", "9", "--k", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "rectangular exponent" in captured.err


def test_bench_rows(capsys):
    rc = main(
        ["bench", "--family", "hadamard", "--n", "8:24:8", "--depth", "2,3"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("family,n,N,d,base,")
    # rows appear when depth divides n
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[1], r[3]) for r in rows] == [
        ("8", "2"), ("16", "2"), ("24", "2"), ("24", "3"),
    ]
    d2 = [r for r in rows if r[3] == "2"]
    assert d2[0][5] == "7168"  # matches the synthesized circuit
    # at fixed n, extra depth trades wires for rounds: d=3 beats d=2
    by_key = {(r[1], r[3]): float(r[8]) for r in rows}
    assert by_key[("24", "3")] < by_key[("24", "2")]


@pytest.mark.parametrize("family,n,d,base", [
    ("hadamard", 16, 2, "h4"), ("hadamard", 12, 3, "h2"), ("hadamard", 9, 3, "h3cube"),
    ("disjointness", 12, 3, "js:4"), ("disjointness", 10, 2, "auto"),
])
def test_bench_wires_are_the_synth_wires(capsys, family, n, d, base):
    argv = ["--family", family, "--n", str(n), "--depth", str(d), "--base", base]
    assert main(["bench"] + argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(["synth"] + argv) == 0
    assert f" wires={row[5]} " in capsys.readouterr().out


def test_digits_the_base_does_not_cover_go_into_butterfly_slots(tmp_path, capsys):
    # h4 covers 4 digits: n = 10 at depth 2 is one lifted unit of 8 digits
    # and one butterfly digit per layer; n = 8 at depth 4 is all butterfly
    path = str(tmp_path / "h10.circ")
    argv = ["--family", "hadamard", "--n", "10", "--depth", "2"]
    assert main(["synth"] + argv + ["--out", path]) == 0
    assert " wires=57344 trivial=65536 " in capsys.readouterr().out
    assert main(["verify", "--circuit", path, "--family", "hadamard", "--n", "10"]) == 0
    assert capsys.readouterr().out == "equal=True wires=57344 depth=2 method=structural\n"
    assert main(["bench", "--family", "hadamard", "--n", "8,10", "--depth", "2,4"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[1], r[3], r[5]) for r in rows] == [
        ("8", "2", "7168"), ("8", "4", "4096"), ("10", "2", "57344"),
    ]
    # a base of the other family is refused on a grid with no row
    argv = ["--family", "hadamard", "--base", "js:4", "--n", "9", "--depth", "2"]
    assert main(["bench"] + argv) == 2


@pytest.mark.parametrize("family,base,n,d,wires", [
    ("hadamard", "h4", 8, 4, 4096),  # h4 covers 4 digits, 16 with d = 4
    ("disjointness", "js:12", 2, 2, 12),
])
def test_a_base_that_covers_no_digit_is_bounded_as_the_butterfly(capsys, family, base, n, d, wires):
    # the circuit is the butterfly, so its formula bound is the butterfly's wires
    argv = ["--family", family, "--base", base, "--n", str(n), "--depth", str(d)]
    assert main(["synth"] + argv) == 0
    assert f" wires={wires} trivial={wires} formula_bound={wires}.0\n" in capsys.readouterr().out
    assert main(["bench"] + argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[4:8] == [base, str(wires), str(wires), f"{wires}.0"]


def test_synth_counts_wires_without_building(tmp_path, capsys):
    # 10^10 wires: counted from the operands, never built
    argv = ["synth", "--family", "hadamard", "--n", "24", "--depth", "3"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert " wires=10288889856 " in capsys.readouterr().out
    # building it is refused before anything is printed or written
    out = tmp_path / "h24.circ"
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cap exceeded:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_formula_bound_beyond_float_range_is_a_cap(capsys, command):
    assert main([command, "--family", "hadamard", "--n", "1024", "--depth", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cap exceeded:")


def test_bench_auto_base_of_disjointness(capsys):
    # auto is js:n // d for disjointness (up to the cap), resolved per row as in synth
    argv = ["--family", "disjointness", "--n", "8", "--depth", "2"]
    assert main(["bench"] + argv + ["--base", "auto"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "disjointness,8,256,2,auto,2378,2592,2378.0,1.161133"
    assert main(["synth"] + argv) == 0
    assert "wires=2378 trivial=2592 formula_bound=2378.0" in capsys.readouterr().out


def test_auto_base_of_disjointness_stops_at_the_partition_cap(capsys):
    # n // d = 16 is above disjoint.LIST_CAP = 14, so auto is js:14
    argv = ["synth", "--family", "disjointness", "--n", "64", "--depth", "4"]
    assert main(argv + ["--base", "js:14"]) == 0
    want = capsys.readouterr().out
    assert "wires=33267328319183074099200 " in want
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    bench = ["bench", "--family", "disjointness", "--n", "64", "--depth", "4"]
    assert main(bench + ["--base", "auto"]) == 0
    assert ",33267328319183074099200," in capsys.readouterr().out


@pytest.mark.parametrize("n,d", [(8, 2), (12, 2), (12, 3)])
def test_disjointness_trivial_is_the_wires_of_its_butterfly(capsys, n, d):
    # R_1 has 3 nonzeros, so R_n's butterfly is not the Hadamard one
    want = butterfly_circuit([disjointness_matrix(1, F5)] * n, n // d).wires
    assert want == d * 3 ** (n // d) * 2 ** (n - n // d)
    argv = ["--family", "disjointness", "--n", str(n), "--depth", str(d)]
    assert main(["bench"] + argv + ["--base", "auto"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[6] == str(want)
    assert main(["synth"] + argv) == 0
    assert f" trivial={want} " in capsys.readouterr().out


def test_usage_error(capsys):
    rc = main(["synth", "--family", "hadamard", "--n", "9", "--depth", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_the_command_patched_after_the_parser_was_built(monkeypatch, capsys):
    argv = ["disjoint-stats", "--n", "4", "--k", "2"]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_disjoint_stats", lambda args: seen.append(args.n) or 0)
    capsys.readouterr()
    assert main(argv) == 0
    assert seen == [4]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family,base", [("hadamard", "js:4"), ("disjointness", "h4")])
def test_base_of_another_family_is_a_usage_error(capsys, family, base):
    rc = main(["synth", "--family", family, "--n", "8", "--depth", "2", "--base", base])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["--family", "hadamard", "--base", "js:4"],
    ["--family", "disjointness"],  # the default base, h4
])
def test_bench_base_of_another_family_is_a_usage_error(capsys, argv):
    assert main(["bench", "--n", "8", "--depth", "2"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["synth", "bench"])
@pytest.mark.parametrize("base,code,err", [
    ("js:-1", 2, "error: unknown base 'js:-1'\n"),
    ("js:0", 2, "error: unknown base 'js:0'\n"),
    ("js:x", 2, "error: unknown base 'js:x'\n"),
    ("js:", 2, "error: unknown base 'js:'\n"),
    ("js:15", 3, "cap exceeded: n = 15 exceeds the partition cap 14\n"),
])
def test_js_base_needs_m_from_1_to_the_cap(capsys, command, base, code, err):
    argv = [command, "--family", "disjointness", "--n", "8", "--depth", "2", "--base", base]
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["bench", "--family", "hadamard", "--n", "8", "--depth", "0"],
    ["synth", "--family", "disjointness", "--n", "8", "--depth", "0"],
])
def test_depth_below_two_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_against_the_wrong_n_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "h8.circ")
    assert main(
        ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", path]
    ) == 0
    capsys.readouterr()
    rc = main(["verify", "--circuit", path, "--family", "hadamard", "--n", "6"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("n,rc,err", [
    (20, 2, "error:"), (20000, 3, "cap exceeded:"), (400000, 3, "cap exceeded:"),
])
def test_verify_against_a_far_larger_n_exits_at_once(tmp_path, capsys, n, rc, err):
    # the target is refused before anything is built: 2^20 x 2^20 is within
    # the dimension cap but not the circuit's shape; 2^20000 is beyond the
    # cap, with more digits than an int may print by default
    path = str(tmp_path / "h8.circ")
    assert main(
        ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", path]
    ) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", "--circuit", path, "--family", "hadamard", "--n", str(n)]) == rc
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)


def _one_by_one(tmp_path, field, value):
    """A depth-1 circuit file whose one factor is the 1x1 matrix [value]."""
    path = tmp_path / f"one_{field}_{value}.circ"
    path.write_text(f"circuit 1 1 1 {field} 1\nfactor 0 1 1 1\n0 0 {value}\n")
    return str(path)


def test_verify_refuses_a_negative_n_before_reading_the_file(tmp_path, capsys):
    # [unit] * -3 would be the empty target, which [1] equals
    for path in (_one_by_one(tmp_path, 5, 1), str(tmp_path / "missing.circ")):
        assert main(["verify", "--circuit", path, "--family", "hadamard", "--n", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: verify needs n >= 0, not n = -3\n"


@pytest.mark.parametrize("field", [5, 0], ids=["F5", "Q"])
@pytest.mark.parametrize("value,rc", [(1, 0), (2, 1)])
def test_verify_at_n_0_is_decided_by_the_block_check(tmp_path, capsys, field, value, rc):
    # the target of n = 0 is the 1x1 identity
    path = _one_by_one(tmp_path, field, value)
    assert main(["verify", "--circuit", path, "--family", "disjointness", "--n", "0"]) == rc
    assert capsys.readouterr().out == f"equal={rc == 0} wires=1 depth=1 method=block\n"


def test_cap_exit_code(tmp_path, capsys):
    path = str(tmp_path / "h8.circ")
    assert main(
        ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", path]
    ) == 0
    capsys.readouterr()
    rc = main(["verify", "--circuit", path, "--family", "disjointness", "--n", "27"])
    assert rc == 3
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("text,rc,out,err", [
    ("circuit 1 2 2 5 134217729\n", 3, "", "cap exceeded:"),
    ("circuit 1 2 2 5 134217728\n", 2, "", "error:"),  # at the cap: read on to the missing factor
    ("circuit 1 2 2 5 3\nfactor 0 2 2 3\n0 0 1\n0 1 1\n1 0 1\n", 1,  # H_1 without its -1
     "equal=False wires=3 depth=1 method=block\n", ""),
])
def test_verify_refuses_a_header_past_the_wire_cap_before_its_factors(tmp_path, capsys, text, rc, out, err):
    # circuits.WIRE_CAP bounds what synth --out writes and what verify reads;
    # exit 1 stays "not equal"
    path = tmp_path / "w.circ"
    path.write_text(text)
    assert main(["verify", "--circuit", str(path), "--family", "hadamard", "--n", "1"]) == rc
    captured = capsys.readouterr()
    assert captured.out == out and captured.err.startswith(err)


@pytest.mark.parametrize("header,n", [("circuit 1 2 2 5 134217729", 1), ("circuit 2 256 256 5 134217729", 8)])
def test_a_header_past_the_wire_cap_exits_before_anything_is_built(tmp_path, capsys, monkeypatch, header, n):
    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(cli, "_base_factorization", refuse)
    monkeypatch.setattr(cli.circuits, "synthesize", refuse)
    path = tmp_path / "w.circ"
    path.write_text(header + "\n")
    assert main(["verify", "--circuit", str(path), "--family", "hadamard", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "cap exceeded: 134217729 wires exceed the cap 134217728\n"


@pytest.mark.parametrize("make,err", [
    (lambda tmp_path: tmp_path / "missing.circ", "[Errno 2] No such file or directory"),
    (lambda tmp_path: tmp_path, "[Errno 21] Is a directory"),
], ids=["missing", "directory"])
def test_verify_of_an_unreadable_path_is_a_usage_error(tmp_path, capsys, make, err):
    path = str(make(tmp_path))
    assert main(["verify", "--circuit", path, "--family", "hadamard", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}: {path!r}\n"


def test_verify_of_a_crlf_copy_reads_it_as_written(tmp_path, capsys):
    # the reader opens the file as text, so CRLF line ends read as LF
    path, crlf = tmp_path / "h8.circ", tmp_path / "h8_crlf.circ"
    assert main(["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", str(path)]) == 0
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert main(["verify", "--circuit", str(crlf), "--family", "hadamard", "--n", "8"]) == 0
    assert capsys.readouterr().out == "equal=True wires=7168 depth=2 method=structural\n"


def _child_env():
    """The environment of a child that imports the same kronrigid as the
    tests, installed or not."""
    src = os.path.dirname(os.path.dirname(kronrigid.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_the_cli_does_not_import_mpmath():
    # mpmath is a test dependency only: the package computes entropies in floats
    code = "import sys, kronrigid.cli; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), timeout=30)
    assert proc.returncode == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kronrigid.cli", "disjoint-stats", "--n", "6", "--k", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("6,2,")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "hadamard", "--n", "1000000000", "--circuit"],
    ["synth", "--family", "hadamard", "--n", "400000000", "--depth", "2"],
    ["mmcost", "--n", "40", "--k", "2"],
    ["mmcost", "--n", "1000000000", "--k", "2"],
    ["mmcost", "--n", "16", "--k", "1"],  # a round block of 2^32 entries
    ["mmcost", "--n", "24", "--k", "2"],  # a 2^24-entry round block and probe
    ["bench", "--family", "hadamard", "--n", "1:1000000000", "--depth", "2"],
])
def test_huge_n_is_a_cap_under_an_address_limit(tmp_path, argv):
    # a list of n operands would be gigabytes: in a 1.5 GB address space
    # that is a MemoryError and a traceback unless n is refused first
    circuit = str(tmp_path / "h8.circ")
    assert main(["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", circuit]) == 0
    if argv[0] == "verify":
        argv = argv + [circuit]
    limit = 3 * 2**29
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from kronrigid.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("cap exceeded:") and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads its address space from /proc")
def test_verify_out_of_memory_is_a_cap(tmp_path, capsys):
    # the child may map only 2 MB more than it holds after its imports: too
    # little to rebuild the 2.7 MB circuit synth wrote, or to read it, so
    # verify runs out of memory
    circuit = tmp_path / "h12.circ"
    synth = ["synth", "--family", "hadamard", "--n", "12", "--depth", "3", "--base", "h2"]
    assert main(synth + ["--out", str(circuit)]) == 0
    code = (
        "import resource, sys\n"
        "from kronrigid.cli import build_parser, main\n"
        "build_parser()\n"
        "with open('/proc/self/statm') as fh:\n"
        "    limit = int(fh.read().split()[0]) * resource.getpagesize() + 2**21\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    verify = ["verify", "--family", "hadamard", "--n", "12", "--circuit", str(circuit)]
    proc = subprocess.run([sys.executable, "-c", code, *verify], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("cap exceeded:") and "Traceback" not in proc.stderr
    assert not proc.stdout
    # exit 1 stays "not equal": the same file with one entry changed
    lines = circuit.read_text().splitlines(keepends=True)
    i, j, v = lines[-1].split()
    lines[-1] = f"{i} {j} {int(v) % 4 + 1}\n"  # another residue mod 5
    circuit.write_text("".join(lines))
    capsys.readouterr()
    assert main(verify) == 1
    assert "equal=False" in capsys.readouterr().out


@pytest.mark.parametrize("prime", [131, 2**31 - 1])
def test_verify_at_large_primes(tmp_path, capsys, prime):
    path = str(tmp_path / "h8.circ")
    argv = ["synth", "--family", "hadamard", "--n", "8", "--depth", "2"]
    assert main(argv + ["--field", str(prime), "--out", path]) == 0
    capsys.readouterr()
    rc = main(["verify", "--circuit", path, "--family", "hadamard", "--n", "8"])
    assert rc == 0
    assert "equal=True" in capsys.readouterr().out


def test_verify_over_the_rationals(tmp_path, capsys):
    good, bad = tmp_path / "h4.circ", tmp_path / "tampered.circ"
    argv = ["synth", "--family", "hadamard", "--n", "4", "--depth", "2", "--base", "h2"]
    assert main(argv + ["--field", "0", "--out", str(good)]) == 0
    lines = good.read_text().splitlines(keepends=True)
    assert lines[2] == "0 0 2\n"
    lines[2] = "0 0 1/2\n"
    bad.write_text("".join(lines))
    capsys.readouterr()
    verify = ["verify", "--family", "hadamard", "--n", "4", "--circuit"]
    assert main(verify + [str(good)]) == 0
    assert "equal=True" in capsys.readouterr().out
    assert main(verify + [str(bad)]) == 1
    assert "equal=False" in capsys.readouterr().out


def _bad_circuit_texts(tmp_path):
    path = tmp_path / "h8.circ"
    assert main(
        ["synth", "--family", "hadamard", "--n", "8", "--depth", "2", "--out", str(path)]
    ) == 0
    text = path.read_text()
    header, rest = text.split("\n", 1)
    lines = text.splitlines(keepends=True)
    tag, depth, rows, cols, field, wires = header.split()
    first, second = rest.split("\nfactor 1", 1)
    _, j, v = lines[-1].split()
    return {
        "empty": "",
        "truncated": "".join(lines[: len(lines) // 2]),
        "wire_mismatch": " ".join(header.split()[:-1] + ["7"]) + "\n" + rest,
        "huge_index": "".join(lines[:-1]) + f"{2**64} {j} {v}\n",
        "shape_mismatch": f"{tag} {depth} {2 * int(rows)} {cols} {field} {wires}\n{rest}",
        "factor_order": f"{header}\nfactor 1{second}{first}\n",
        "no_factor": "circuit 0 1 1 5 0\n",
    }


_BAD_CIRCUIT_ERRORS = {
    "huge_index": "index out of range",
    "shape_mismatch": "header shape does not match factors",
    "factor_order": "factor 1 found where factor 0 belongs",
    "no_factor": "a circuit needs at least one factor",
}


@pytest.mark.parametrize("case", ["empty", "truncated", "wire_mismatch", *_BAD_CIRCUIT_ERRORS])
def test_bad_circuit_file_is_a_usage_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.circ"
    bad.write_text(_bad_circuit_texts(tmp_path)[case])
    capsys.readouterr()
    rc = main(["verify", "--circuit", str(bad), "--family", "hadamard", "--n", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and _BAD_CIRCUIT_ERRORS.get(case, "") in err
