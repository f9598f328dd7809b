"""The public API is the paper's objects and the tools that check them; a
name added to or dropped from ``specvar`` must be a deliberate edit here."""

import types

import specvar

PUBLIC = {
    # f and its built-ins (absym)
    "INF", "ExtendedValue", "SpectralFunctionSpec", "kyfan_spec", "l1_spec",
    "linf_spec", "scale_spec", "spec_by_name",
    # decompositions, partitions and the tolerance policy (matrix_core)
    "CLUSTER_TOL", "RANK_TOL", "SingularPartition", "SvdDecomposition",
    "Tolerances", "gauge_randomize", "partition_of", "partition_values",
    "read_matrix_csv", "svd_ordered", "sym_eig_ordered", "write_matrix_csv",
    # sigma' and sigma'' (sv_calculus)
    "eig_expand2", "expansion_residual", "min_direction_construct",
    "sigma_dir1", "sigma_dir2",
    # F = f o sigma, nuclear epi-derivatives, invariant sets (oimf)
    "F_critical_cone_contains", "F_eval", "F_parabolic_subderivative",
    "F_second_subderivative", "F_subderivative", "F_subdiff_contains",
    "F_subdiff_element", "InvariantSetSpec", "SecondSubderivativeReport",
    "SpectralPoint", "free_set", "guided_offsets", "invariant_set_distance",
    "invariant_tangent_contains", "nuclear_phi_second_diff",
    "nuclear_psi_eval", "nuclear_psi_second_epi", "nuclear_psi_subderivative",
    "nuclear_second_epi", "set_by_name", "simultaneous_gauge",
    "spectral_ball_set", "zero_set",
    # difference-quotient oracles (oracles)
    "GradientCheckReport", "OracleConfig", "fd_gradient_check",
    "liminf_table", "parabolic_quotient", "quotient2_fixed",
    "quotient2_liminf",
    # second-order certificates (certify)
    "HalfSquaredDistance", "LeastSquares", "OptimalityCertificate",
    "ProblemSpec", "QuadraticMinusRankOne", "SamplingConfig", "certify",
    "curvature", "objective", "quadratic_growth_probe", "saddle_fixture",
    "soft_threshold_fixture", "stationarity_check", "svt_solve",
}


def test_public_names_are_exactly_the_listed_ones():
    names = {k for k, v in vars(specvar).items()
             if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
