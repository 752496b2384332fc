"""Exception types shared across the package."""


class SpecLPError(Exception):
    """Base class for all package-specific errors."""


class SymbolEvalError(SpecLPError):
    """A symbol returned a non-finite value; message names (t, xi)."""


class MultiplierError(SpecLPError):
    """A frequency multiplier is non-finite at some lattice point."""


class QuadratureError(SpecLPError):
    """Adaptive time quadrature failed to converge; message names the worst xi."""


class AuditError(SpecLPError):
    """A numerical audit could not be carried out (blocks underflow, fit window too short, ...)."""


class WindowError(SpecLPError):
    """A time window is illegal for the requested computation."""


class ConfigError(SpecLPError):
    """A scenario configuration is invalid or violates a legality constraint."""
