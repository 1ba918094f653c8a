"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class LexError(EngineError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class IndexingError(EngineError):
    """Source file cannot be structurally indexed (e.g. unbalanced braces)."""


class EmptyScope(EngineError):
    """A nesting profile was requested for a scope with no lines."""


class UndefinedSimilarity(EngineError):
    """Overlap similarity of two empty token bags."""


class MissingContext(EngineError):
    """A metric or extraction needs class/method context that is absent."""


class EmptyDistribution(EngineError):
    """No per-method samples exist (zero indexed methods)."""


class InvalidSensitivity(EngineError):
    """Sensitivity outside the 1..100 range."""


class NotComputable(EngineError):
    """Thresholds cannot be computed for an enabled submetric."""


class ConfigSyntax(EngineError):
    """Settings file is not valid JSON."""


class InvalidSetting(EngineError):
    """A settings value is outside its documented domain."""


class UnknownSubmetric(EngineError):
    """Settings reference a submetric name that does not exist."""


class UnknownKeyword(EngineError):
    """Settings enable a keyword outside the configurable catalogue."""


class MissingRoot(EngineError):
    """Project root does not exist or is not a directory."""


class ExtractionError(EngineError):
    """Base class for extraction feasibility and application errors."""


class TooManyOutputs(ExtractionError):
    def __init__(self, outputs: list[str]):
        super().__init__(f"fragment produces {len(outputs)} outputs: {', '.join(outputs)}")
        self.outputs = outputs


class IllegalFlow(ExtractionError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class UnresolvedType(ExtractionError):
    def __init__(self, name: str):
        super().__init__(f"cannot resolve declared type of '{name}'")
        self.name = name


class NameCollision(ExtractionError):
    def __init__(self, name: str):
        super().__init__(f"method name '{name}' already declared in the target class")
        self.name = name


class InvalidIdentifier(ExtractionError):
    def __init__(self, name: str):
        super().__init__(f"'{name}' is not a valid Java identifier")
        self.name = name


class StaleSite(ExtractionError):
    """A planned replacement site no longer matches the fragment."""
