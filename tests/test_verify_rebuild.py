"""`verify` of a file `synth` wrote: the circuit is rebuilt from the header
and compared byte for byte, and the file is never parsed.  Every other
file falls through to the reader with the verdict, method and exit code
it had before."""

import dataclasses
import os
import threading

import pytest

from kronrigid import circuits, cli, sparse
from kronrigid.cli import main
from kronrigid.fields import FieldCtx

FIELDS = [5, 2147483629, 0]

# (family, base, n, depth): each base covers digits, some with digits left
# over for the butterfly slots
SYNTHS = [
    ("hadamard", "h2", 4, 2),
    ("hadamard", "h3cube", 6, 2),
    ("hadamard", "h4", 6, 2),
    ("hadamard", "auto", 8, 4),
    ("disjointness", "js:1", 4, 2),
    ("disjointness", "js:2", 6, 3),
    ("disjointness", "js:3", 9, 3),
    ("disjointness", "js:4", 8, 2),
    ("disjointness", "js:5", 10, 2),
    ("disjointness", "js:6", 12, 2),
    ("disjointness", "auto", 9, 3),
]


def synth(tmp_path, family, base, n, depth, field, name="c.circ"):
    path = tmp_path / name
    argv = ["synth", "--family", family, "--n", str(n), "--depth", str(depth),
            "--base", base, "--field", str(field), "--out", str(path)]
    assert main(argv) == 0
    return path


def verify(monkeypatch, capsys, path, family, n, rebuild=True):
    """(exit code, stdout, stderr, load_circuit calls) of one verify;
    rebuild=False takes the reader's path alone, as verify did before."""
    loads = []
    load = circuits.load_circuit
    capsys.readouterr()
    with monkeypatch.context() as mp:
        mp.setattr(circuits, "load_circuit", lambda p: loads.append(p) or load(p))
        if not rebuild:
            mp.setattr(cli, "_rebuilt", lambda *args: None)
        rc = main(["verify", "--circuit", str(path), "--family", family, "--n", str(n)])
    out, err = capsys.readouterr()
    return rc, out, err, len(loads)


@pytest.mark.parametrize("field", FIELDS, ids=["F5", "F2147483629", "Q"])
@pytest.mark.parametrize("family,base,n,depth", SYNTHS, ids=[f"{s[1]}-{s[2]}-{s[3]}" for s in SYNTHS])
def test_a_synth_file_is_rebuilt_not_read(tmp_path, monkeypatch, capsys, family, base, n, depth, field):
    path = synth(tmp_path, family, base, n, depth, field)
    rc, out, err, loads = verify(monkeypatch, capsys, path, family, n)
    assert (rc, err, loads) == (0, "", 0)
    assert out.endswith(f" depth={depth} method=structural\n")
    assert verify(monkeypatch, capsys, path, family, n, rebuild=False) == (rc, out, err, 1)


def one_byte_changes(text: bytes):
    """name -> the text with one byte changed, dropped or appended."""
    header_end = text.index(b"\n")
    sub_header = text.index(b"\nfactor 1 ") + len(b"\nfactor 1 ")
    last = text.rindex(b"\n", 0, len(text) - 1) + 1  # the last "i j value" line
    value = len(text) - 2  # the last digit of the last value
    column = text.index(b" ", last) + 1
    swap = dict(zip(b"0123456789", b"1231234567"))  # a value below 5 stays nonzero mod 5

    def at(k):
        return text[:k] + bytes([swap[text[k]]]) + text[k + 1:]

    return {
        "header wires": at(header_end - 1),
        "header depth": at(len(b"circuit ")),
        "sub-header": at(sub_header),
        "index": at(column),
        "value": at(value),
        "no trailing newline": text[:-1],
        "appended newline": text + b"\n",
        "appended digit": text + b"7",
    }


CHANGES = list(one_byte_changes(b"circuit 2 4 4 5 8\nfactor 0 4 4 4\n0 0 1\nfactor 1 4 4 4\n3 3 1\n"))


@pytest.mark.parametrize("field", [5, 0], ids=["F5", "Q"])
@pytest.mark.parametrize("change", CHANGES)
def test_a_changed_byte_falls_through_to_the_reader(tmp_path, monkeypatch, capsys, field, change):
    path = synth(tmp_path, "hadamard", "h4", 6, 2, field)
    path.write_bytes(one_byte_changes(path.read_bytes())[change])
    rc, out, err, loads = verify(monkeypatch, capsys, path, "hadamard", 6)
    assert loads == 1
    assert (rc, out, err, loads) == verify(monkeypatch, capsys, path, "hadamard", 6, rebuild=False)


def test_the_changes_reach_each_verdict(tmp_path, monkeypatch, capsys):
    path = synth(tmp_path, "hadamard", "h4", 6, 2, 5)
    codes = set()
    for text in one_byte_changes(path.read_bytes()).values():
        path.write_bytes(text)
        codes.add(verify(monkeypatch, capsys, path, "hadamard", 6)[0])
    assert codes == {0, 1, 2}


# one family and n = 8: every base, depth and field that synth can write;
# some write the same bytes (the butterfly, when the base covers no digit)
OTHERS = [(base, depth, field) for base in ("h2", "h3cube", "h4") for depth in (2, 4) for field in (5, 7, 0)]


def test_a_file_of_another_base_depth_or_field_never_matches(tmp_path, monkeypatch, capsys):
    texts = set()
    for base, depth, field in OTHERS:
        path = synth(tmp_path, "hadamard", base, 8, depth, field)
        text = path.read_bytes()
        texts.add(text)
        # whichever base matched, the rebuilt circuit is the file's own
        assert circuits.dump_circuit(cli._rebuilt(path, "hadamard", 8)).encode() == text
    for text in texts:  # each body under every other header
        body = text.split(b"\n", 1)[1]
        for forged in {other.split(b"\n", 1)[0] + b"\n" + body for other in texts} - texts:
            path.write_bytes(forged)
            assert cli._rebuilt(path, "hadamard", 8) is None
        path.write_bytes(text)
        rc, out, err, loads = verify(monkeypatch, capsys, path, "disjointness", 8)
        assert loads == 1
        assert (rc, out, err, loads) == verify(monkeypatch, capsys, path, "disjointness", 8, rebuild=False)


@pytest.mark.parametrize("base,n,depth", [("js:2", 8, 4), ("js:3", 8, 4), ("js:4", 8, 2)])
def test_a_js_verify_builds_no_js_m_above_n_over_d(tmp_path, monkeypatch, capsys, base, n, depth):
    # js:3 at n = 8, d = 4 covers no digit: its file is the butterfly, read by the reader
    path = synth(tmp_path, "disjointness", base, n, depth, 5)
    text = one_byte_changes(path.read_bytes())["value"]
    built = []
    factorization = cli.disjoint.js_factorization
    monkeypatch.setattr(cli.disjoint, "js_factorization", lambda m, ctx: built.append(m) or factorization(m, ctx))
    for tampered in (False, True):
        if tampered:
            path.write_bytes(text)
        verify(monkeypatch, capsys, path, "disjointness", n)
    assert built and max(built) <= n // depth


@pytest.mark.parametrize("change", [None, "header wires", "value"])
def test_a_pipe_is_left_to_the_reader(tmp_path, monkeypatch, capsys, change):
    # --circuit /dev/stdin < f, or <(zcat f.gz): nothing is read from a
    # stream that cannot seek back to its start
    path = synth(tmp_path, "hadamard", "h4", 6, 2, 5)
    if change:
        path.write_bytes(one_byte_changes(path.read_bytes())[change])
    expected = verify(monkeypatch, capsys, path, "hadamard", 6, rebuild=False)
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert verify(monkeypatch, capsys, f"/dev/fd/{r}", "hadamard", 6) == expected
    finally:
        writer.join()
        os.close(r)


def test_equal_bytes_are_decided_by_the_proof(tmp_path, monkeypatch, capsys):
    # B scaled by 2: the file is what the rebuild writes, but its product is a multiple of H_8
    factorization = cli._base_factorization

    def scaled(*args):
        tf = factorization(*args)
        return dataclasses.replace(tf, B=sparse.scale(tf.B, 2))

    monkeypatch.setattr(cli, "_base_factorization", scaled)
    ctx = FieldCtx(5)
    path = tmp_path / "scaled.circ"
    circ = circuits.synthesize(scaled("hadamard", "h4", 8, 2, ctx), cli._family_unit("hadamard", ctx), 8, 2)
    circuits.save_circuit(circ, path)
    rc, out, err, loads = verify(monkeypatch, capsys, path, "hadamard", 8)
    assert (rc, loads) == (1, 1) and out.startswith("equal=False ")
    assert (rc, out, err, loads) == verify(monkeypatch, capsys, path, "hadamard", 8, rebuild=False)
