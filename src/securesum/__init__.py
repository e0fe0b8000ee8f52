"""Three-party secure XOR computation: protocols, codes, and exact leakage audits."""

from .analysis import (
    AffineJoint,
    LeakageReport,
    MonteCarloError,
    RateReport,
    affine_joint,
    check_rate_region,
    conditional_entropy,
    conditional_mutual_information,
    leakage_report,
    monte_carlo_error,
    rate_report,
)
from .codes import (
    LinearCode,
    build_code,
    code_from_matrix,
    exact_error_probability,
)
from .errors import CapacityError, ConfigurationError, ContractViolation
from .gf2 import Gf2Matrix, Gf2Vector, random_matrix
from .protocol import Message, PartyId, RunOutcome, Transcript, run
from .source import DsbsParams, binary_entropy

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Gf2Vector", "Gf2Matrix", "random_matrix",
    "DsbsParams", "binary_entropy",
    "LinearCode", "build_code", "code_from_matrix",
    "exact_error_probability",
    "PartyId", "Message", "Transcript", "RunOutcome", "run",
    "AffineJoint", "LeakageReport", "RateReport", "MonteCarloError",
    "affine_joint", "conditional_entropy", "conditional_mutual_information",
    "leakage_report", "rate_report", "check_rate_region", "monte_carlo_error",
    "ContractViolation", "CapacityError", "ConfigurationError",
]
