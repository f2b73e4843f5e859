"""Exception types shared across the package."""


class BevxError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(BevxError, ValueError):
    """Operand shapes are incompatible for the requested operation."""

    @classmethod
    def mismatch(cls, op, a_shape, b_shape):
        return cls(f"{op}: incompatible shapes {tuple(a_shape)} and {tuple(b_shape)}")


class ValidationError(BevxError, ValueError):
    """Input violates a documented invariant (e.g. unnormalized attention)."""


class GeometryError(BevxError, ValueError):
    """Camera or grid parameters are degenerate (e.g. singular intrinsics)."""


class ConfigError(BevxError, ValueError):
    """A scene-config document is malformed or inconsistent."""


class FileFormatError(BevxError, ValueError):
    """A ring/ray cache file or a benchmark CSV is malformed."""


class UsageError(BevxError, ValueError):
    """Bad CLI-level request, e.g. an unknown backend or setting name."""
