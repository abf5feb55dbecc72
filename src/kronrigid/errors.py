"""Exception types shared across the package."""


class KronRigidError(Exception):
    """Base class for all package errors; raised itself by a refusal of no narrower kind."""


class ContextMismatch(KronRigidError):
    """Operands belong to different fields."""


class DivisionByZero(KronRigidError, ZeroDivisionError):
    """Inverse of the zero element requested."""


class RationalUnsupported(KronRigidError):
    """Operation only defined over prime fields."""


class DimensionMismatch(KronRigidError):
    """A shape, length, depth or count does not fit."""


class CapExceeded(KronRigidError):
    """Requested size exceeds a materialization cap."""


class WorkCapExceeded(CapExceeded):
    """Estimated enumeration work exceeds the configured cap."""

    def __init__(self, estimated_work, cap):
        self.estimated_work = estimated_work
        self.cap = cap
        super().__init__(
            f"estimated work {estimated_work} (candidates x cells) exceeds work cap {cap}"
        )


class OuterZero(KronRigidError):
    """A first-row or first-column entry required to be nonzero is zero."""

    def __init__(self, i, j):
        self.position = (i, j)
        super().__init__(f"outer entry ({i}, {j}) is zero")


class ExceedsBound(KronRigidError):
    """No decomposition found within the allowed number of changes."""

    def __init__(self, max_changes):
        self.max_changes = max_changes
        super().__init__(f"no decomposition with at most {max_changes} changes")


class ModulusTooSmallWarning(UserWarning):
    """Point multiplicities may wrap around the field modulus."""
