"""Equivariant projector kernels on sphere bundles over projective space.

Exact kernel evaluation for joint torus isotypes, the geometric invariants
controlling their concentration asymptotics, predicted leading terms, and
Berezin-Toeplitz compressions, together with the independent oracles and the
experiment runner used to verify the scaling laws.
"""

from .actions import (
    MomentData,
    StabilizerElement,
    WeightSystem,
    act,
    infinitesimal_action,
    locus_center,
    locus_distance,
    locus_sample,
    moment,
    moment_kernel_basis,
    script_D_rows,
    stabilizer,
)
from .asymptotics import (
    diagonal_leading,
    fit_exponent,
    locus_data,
    near_diagonal_leading,
)
from .errors import (
    AssumptionViolation,
    ConfigError,
    DomainError,
    EquiSzegoError,
    InfeasibleLocusError,
    TransversalityError,
)
from .geometry import (
    AdaptedFrame,
    SpherePoint,
    TangentVectorX,
    bundle_volume,
    chart_rows,
    dist_proj,
    frame_at,
)
from .hardy import (
    IsotypeBasis,
    build_basis,
    dim_isotype,
    enumerate_isotype,
    log_coefficient,
    log_sections,
)
from .kernel import (
    log_szego_diag,
    szego_diag,
    szego_eval,
)
from .toeplitz import (
    RadialPolynomial,
    toeplitz_kernel,
    toeplitz_matrix,
    toeplitz_near_diagonal_leading,
    toeplitz_trace,
    trace_prediction,
)

__version__ = "0.1.0"
