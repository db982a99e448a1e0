"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DisconnectedGraphError",
    "InfeasibleSignalError",
    "FitUndefinedError",
]


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph and gets pieces.

    ``component_sizes`` holds every size, largest first, so callers can
    report them; the message names the count and at most the
    ``_SIZES_SHOWN`` largest, since a sparse graph can have thousands.
    """

    _SIZES_SHOWN = 10

    def __init__(self, sizes: list[int]):
        self.component_sizes = sorted(sizes, reverse=True)
        shown = self.component_sizes[: self._SIZES_SHOWN]
        more = ", …" if len(sizes) > len(shown) else ""
        super().__init__(
            f"graph is disconnected: {len(sizes)} components with sizes "
            f"[{', '.join(map(str, shown))}{more}]"
        )


class InfeasibleSignalError(ValueError):
    """Raised when no signal satisfies the requested cut budget."""


class FitUndefinedError(ValueError):
    """Raised when a least-squares fit is degenerate (no spread on the x axis)."""
