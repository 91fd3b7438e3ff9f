"""Error types shared across the package.

Grammar problems found by the validator are collected as Diagnostic records
(so a single pass can report all of them); everything that goes wrong at
runtime is raised as an exception derived from PsdgError.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """One validation or parse finding.

    kind is a stable machine-readable tag (e.g. "NormalizationViolation",
    "NonTailRecursion", "UndeclaredSymbol", "EmptyRhs", "BadDistribution",
    "ParseError"). line/column are 1-based when known, 0 otherwise.
    """

    kind: str
    message: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        if self.line:
            return f"{self.kind} at {self.line}:{self.column}: {self.message}"
        return f"{self.kind}: {self.message}"


class PsdgError(Exception):
    """Base class for all errors raised by this package."""


class GrammarError(PsdgError):
    """Raised when a grammar fails to parse or validate.

    Carries the full diagnostic list; str() shows the first few.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        shown = "; ".join(str(d) for d in self.diagnostics[:3])
        extra = len(self.diagnostics) - 3
        if extra > 0:
            shown += f" (+{extra} more)"
        super().__init__(shown)


class InvalidTrajectory(PsdgError):
    """A trajectory violates the deterministic stack-advance rules."""


class ZeroEvidence(PsdgError):
    """An observation has probability zero given the observations before it."""

    def __init__(self, time: int, message: str = ""):
        self.time = time
        super().__init__(message or f"observation at t={time} has zero probability")


class ExplosionBound(PsdgError):
    """Work would outgrow a size bound: the states `enumerate_states`
    lists, a belief's support, the joint walk's nodes and rows, or the
    PCFG export's symbols or productions.  The message names the bound."""
