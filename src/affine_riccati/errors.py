"""Exception types shared across the package."""


class AffineRiccatiError(Exception):
    """Base class for all package errors."""


class DomainError(AffineRiccatiError):
    """Argument lies outside the effective domain of the characteristics."""


class SolverError(AffineRiccatiError):
    """A solve required by a diagnostic could not be completed."""


class ConfigError(AffineRiccatiError):
    """Inconsistent or unusable configuration (options, model files, CLI)."""
