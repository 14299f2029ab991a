"""Two-mode Gaussian states: entanglement, EPR correlation, teleportation.

Covariance-matrix conventions: quadrature ordering (x_a, p_a, x_b, p_b),
vacuum variance 1/2.  See the module docstrings for the underlying
formulas; the CLI entry point is ``gaussqt``.
"""

from .core import (
    CanonicalParams,
    EntanglementVerdict,
    OMEGA,
    VACUUM,
    ValidityReport,
    blocks,
    covmat_from_json,
    covmat_to_json,
    from_canonical,
    load_covmat,
    partial_transpose,
    ppt_nu_minus,
    require_physical,
    save_covmat,
    simon_inseparable,
    simon_lhs,
    symplectic_eigenvalues,
    to_canonical,
    validate,
)
from .criteria import (
    Classification,
    CriteriaReport,
    classify,
    epr_degree,
    epr_uncertainty,
    fidelity,
    m_matrix,
)
from .errors import (
    GridSizeError,
    InvalidInput,
    NumericalDomainError,
    PreconditionFailed,
    QuadratureWarning,
)
from .oracle import QuadratureSpec, cf_value, fidelity_by_quadrature
from .resources import (
    bs_covmat,
    nonclassicality_threshold,
    r_ent_threshold,
    r_qt_threshold,
    single_mode_sth,
    tmst_covmat,
)
from .sampling import random_physical_covmats, random_separable_covmats
from .sweep import AxisSpec, SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "CanonicalParams",
    "Classification",
    "CriteriaReport",
    "EntanglementVerdict",
    "GridSizeError",
    "InvalidInput",
    "NumericalDomainError",
    "OMEGA",
    "PreconditionFailed",
    "QuadratureSpec",
    "QuadratureWarning",
    "SweepConfig",
    "VACUUM",
    "ValidityReport",
    "blocks",
    "bs_covmat",
    "cf_value",
    "classify",
    "covmat_from_json",
    "covmat_to_json",
    "epr_degree",
    "epr_uncertainty",
    "fidelity",
    "fidelity_by_quadrature",
    "from_canonical",
    "load_covmat",
    "m_matrix",
    "nonclassicality_threshold",
    "partial_transpose",
    "ppt_nu_minus",
    "r_ent_threshold",
    "r_qt_threshold",
    "random_physical_covmats",
    "random_separable_covmats",
    "require_physical",
    "run_sweep",
    "save_covmat",
    "simon_inseparable",
    "simon_lhs",
    "single_mode_sth",
    "symplectic_eigenvalues",
    "tmst_covmat",
    "to_canonical",
    "validate",
]
