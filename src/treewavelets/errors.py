"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DisconnectedGraphError",
    "InfeasibleSignalError",
    "FitUndefinedError",
]


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph and gets pieces.

    Carries the component sizes so callers (notably the CLI) can report them.
    """

    def __init__(self, sizes: list[int]):
        self.component_sizes = sorted(sizes, reverse=True)
        super().__init__(
            f"graph is disconnected: {len(sizes)} components with sizes "
            f"{self.component_sizes}"
        )


class InfeasibleSignalError(ValueError):
    """Raised when no signal satisfies the requested cut budget."""


class FitUndefinedError(ValueError):
    """Raised when a least-squares fit is degenerate (no spread on the x axis)."""
