"""Exact arithmetic and numerical verification for Morita partners of noncommutative solenoids."""

from .exactnum import PFrac, QuadReal, RadicandMismatchError, ext_gcd, floor, frac1
from .padic import PAdic, PrecisionError
from .solenoid import (
    SeqWindow,
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

# the bimodule layer, and numpy with it (for the hats' interpolation tables), loads on first use of one of its names
_BIMODULE_NAMES = ("BimCtx", "ModElem", "SamplePlan", "identity_suite")


def __getattr__(name: str):
    if name in _BIMODULE_NAMES:
        from . import bimodule

        return getattr(bimodule, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PFrac",
    "QuadReal",
    "RadicandMismatchError",
    "ext_gcd",
    "floor",
    "frac1",
    "PAdic",
    "PrecisionError",
    "SeqWindow",
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
    "BimCtx",
    "ModElem",
    "SamplePlan",
    "identity_suite",
    "__version__",
]
