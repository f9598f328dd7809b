"""specvar: second-order variational calculus for orthogonally invariant
matrix functions F = f o sigma.

The package computes directional derivatives of singular values to
second order, subderivatives / subdifferentials / critical cones of the
composite F for built-in absolutely symmetric f (l1, sup-norm, Ky Fan),
explicit second epi-derivatives of the nuclear norm, difference-quotient
oracles that verify every formula independently, and a sampled
second-order optimality certificate for min psi(X) + f(sigma(X)).
"""

from .absym import (
    INF,
    ExtendedValue,
    SignedPermutation,
    SpectralFunctionSpec,
    f_critical_cone_contains,
    f_parabolic_subderivative,
    f_second_subderivative,
    f_subderivative,
    f_subdiff_contains,
    f_subdiff_representative,
    kyfan_spec,
    l1_spec,
    linf_spec,
    random_signed_permutation,
    scale_spec,
    spec_by_name,
    stabilizer2_contains,
    stabilizer_contains,
    stabilizer_sample,
)
from .certify import (
    HalfSquaredDistance,
    LeastSquares,
    OptimalityCertificate,
    ProblemSpec,
    QuadraticMinusRankOne,
    SamplingConfig,
    certify,
    curvature,
    objective,
    quadratic_growth_probe,
    saddle_fixture,
    soft_threshold_fixture,
    stationarity_check,
    svt_solve,
)
from .matrix_core import (
    CLUSTER_TOL,
    RANK_TOL,
    EigDecomposition,
    EigenPartition,
    SingularPartition,
    SvdDecomposition,
    gauge_randomize,
    lift,
    lift_eigenbasis,
    partition_of,
    partition_values,
    read_matrix_csv,
    svd_ordered,
    sym_eig_ordered,
    write_matrix_csv,
)
from .oimf import (
    F_critical_cone_contains,
    F_eval,
    F_parabolic_subderivative,
    F_second_subderivative,
    F_subderivative,
    F_subdiff_contains,
    F_subdiff_element,
    InvariantSetSpec,
    SecondSubderivativeReport,
    SpectralPoint,
    free_set,
    guided_offsets,
    invariant_set_distance,
    invariant_tangent_contains,
    nuclear_phi_second_diff,
    nuclear_psi_eval,
    nuclear_psi_second_epi,
    nuclear_psi_subderivative,
    nuclear_second_epi,
    set_by_name,
    simultaneous_gauge,
    spectral_ball_set,
    zero_set,
)
from .oracles import (
    GradientCheckReport,
    OracleConfig,
    fd_gradient_check,
    liminf_table,
    parabolic_quotient,
    quotient2_fixed,
    quotient2_liminf,
)
from .sv_calculus import (
    DirectionBlocks,
    direction_blocks,
    eig_expand2,
    expansion_residual,
    min_direction_construct,
    sigma_dir1,
    sigma_dir2,
)

__version__ = "0.1.0"
