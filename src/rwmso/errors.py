"""Shared exception types."""


class RwmsoError(Exception):
    """Base class for all errors raised by this package."""


class WidthMismatchError(RwmsoError):
    """Operands declare different label widths."""


class ScaleGuardError(RwmsoError):
    """A brute-force input is too big, or a forest passes chartree.MAX_NODES."""


class DepthBudgetError(RwmsoError):
    """A characteristic tree is too shallow for the requested operation."""
