"""cochainlab: group-valued edge labelings, their kernel limits, and random
2-complexes, with exact counting oracles behind every floating-point claim."""

__version__ = "0.1.0"

from .cochains import (
    Cochain,
    cocycle_triangles,
    edge_index,
    edge_list,
    embed_graphon,
    path_counts,
    random_cochain,
    triangle_support_counts,
)
from .complexes import (
    ProjectionKernel,
    TwoComplex,
    all_triangles,
    avoidance_probability_exact,
    build_kernel,
    enumerate_hypertrees,
    full_two_skeleton,
    log_avoidance_probability_exact,
    log_containment_upper_bound,
    one_out_containment_probability,
    sample_hypertree,
    sample_linial_meshulam,
    sample_one_out,
    triangle_edge_counts,
)
from .graphons import (
    CutNormTooLarge,
    StepKernel,
    b_functional,
    b_log_terms,
    constant_kernel,
    convolve,
    cut_distance_bounds,
    cut_norm,
    cut_norm_lower,
    dual_maximize,
    dual_rate,
    entropy,
    interpolate_to_uniform,
    kernel_difference,
    mgf_finite_n,
    mgf_limit,
    random_kernel,
    random_test_function,
    random_w00,
    rate_function,
    refine_pair,
    uniform_kernel,
    z_functional,
)
from .groups import Group, SymmetricDistribution
from .homology import (
    HomologyReport,
    bareiss_det,
    boundary_matrices,
    count_cocycles,
    dim_h1_mod_p,
    dim_z1_mod_p,
    homology_report,
    min_generators_h1,
    rank_mod_p,
    smith_normal_form,
    torsion_order,
)
from .regularity import (
    FKResult,
    Partition,
    factor_two_check,
    fk_decompose,
    matrix_cut_norm,
    matrix_cut_norm_lower,
    step_kernel,
    step_matrix,
)
from .serialize import (
    cochain_from_json_dict,
    cochain_to_json_dict,
    complex_from_json_dict,
    complex_to_json_dict,
    dump_json,
    dumps_json,
    kernel_from_json_dict,
    kernel_to_json_dict,
    load_json,
)
