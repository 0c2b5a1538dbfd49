"""Exact arithmetic and numerical verification for Morita partners of noncommutative solenoids."""

from .exactnum import PFrac, QuadReal, RadicandMismatchError, frac1
from .padic import PAdic, PrecisionError
from .solenoid import (
    SolenoidSpec,
    alpha_at,
    alphas,
    coherence_check,
    equal_in_Xi,
    from_even_entries,
)
from .multiplier import GammaElem, MPoint, PhaseArg, cocycle_defect, eta, eta_bar, psi_alpha, rho
from .morita import (
    CertificateResult,
    ConditionError,
    ProjectionData,
    SearchBounds,
    certificate_search,
    condition_check,
    heisenberg_partner,
    heisenberg_partner_spec,
    partner_spec,
    projection_partner,
    relate_check,
)

__version__ = "0.1.0"

__all__ = [
    "PFrac",
    "QuadReal",
    "RadicandMismatchError",
    "frac1",
    "PAdic",
    "PrecisionError",
    "SolenoidSpec",
    "alpha_at",
    "alphas",
    "coherence_check",
    "equal_in_Xi",
    "from_even_entries",
    "GammaElem",
    "MPoint",
    "PhaseArg",
    "cocycle_defect",
    "eta",
    "eta_bar",
    "psi_alpha",
    "rho",
    "CertificateResult",
    "ConditionError",
    "ProjectionData",
    "SearchBounds",
    "certificate_search",
    "condition_check",
    "heisenberg_partner",
    "heisenberg_partner_spec",
    "partner_spec",
    "projection_partner",
    "relate_check",
    "__version__",
]
