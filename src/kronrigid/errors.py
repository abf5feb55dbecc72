"""Exception types shared across the package."""


class KronRigidError(Exception):
    """Base class for all package errors."""


class ContextMismatch(KronRigidError):
    """Operands belong to different fields."""


class DivisionByZero(KronRigidError, ZeroDivisionError):
    """Inverse of the zero element requested."""


class NoRootExists(KronRigidError):
    """No primitive Nth root of unity in this field (N does not divide p-1)."""


class RationalUnsupported(KronRigidError):
    """Operation only defined over prime fields."""


class DimensionMismatch(KronRigidError):
    """Matrix dimensions do not chain."""


class CapExceeded(KronRigidError):
    """Requested size exceeds a materialization cap."""


class DimensionCapExceeded(CapExceeded):
    """Result would exceed the configured dimension cap."""


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


class OmegaZero(KronRigidError):
    """The corner entry of the base matrix is zero where its inverse is needed."""


class NotSquare(KronRigidError):
    """A square matrix is required."""


class DepthTooSmall(KronRigidError):
    """Circuit depth must be at least 2."""


class DivisorMismatch(KronRigidError):
    """A block count or group size does not divide the number of factors."""


class LengthMismatch(KronRigidError):
    """Vector length does not match the transform dimension."""


class LengthNotPowerOfTwo(KronRigidError):
    """Butterfly input length must be a power of two."""


class UnverifiedInput(KronRigidError):
    """Input factorization does not multiply to the claimed target."""


class ExceedsBound(KronRigidError):
    """No decomposition found within the allowed number of changes."""

    def __init__(self, max_changes):
        self.max_changes = max_changes
        super().__init__(f"no decomposition with at most {max_changes} changes")


class ModulusTooSmallWarning(UserWarning):
    """Point multiplicities may wrap around the field modulus."""
