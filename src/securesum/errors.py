"""Error types shared across the package."""

__all__ = ["ContractViolation", "CapacityError", "ConfigurationError"]


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class CapacityError(RuntimeError):
    """A requested computation exceeds an enumeration or memory guard."""


class ConfigurationError(ValueError):
    """Bad, unknown or inconsistent configuration: an identifier, an option or a file."""
