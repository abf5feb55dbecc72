import importlib

import kronrigid
from kronrigid import errors

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
    assert kronrigid.SparseMatrix.__hash__ is None  # __eq__ without a hash


def test_every_cap_is_a_cap_exceeded():
    # cli.main turns this one class into exit 3
    for cap in (errors.DimensionCapExceeded, errors.WorkCapExceeded):
        assert issubclass(cap, errors.CapExceeded)
