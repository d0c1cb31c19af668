"""thermwit: certify entanglement in thermal states from ground-state weight.

The condition is one-sided: a thermal state is entangled whenever the
population of an entangled eigenstate exceeds 1/(1+R), with R the state's
robustness of entanglement (any certified lower bound on R may be
substituted). The package bundles analytic spectra and bounds for four
model systems, generic numerical routes to cross-check every closed form,
and a CLI (`thermwit`) that sweeps temperature grids and emits CSV.
"""
from .checks import ALL_CHECKS
from .config import DEFAULT_GRID, GridSpec, RunConfig, load_config
from .entanglement import (
    BoundKind,
    RobustnessBound,
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_overlap_closed,
    dicke_robustness,
    geometric_measure_als,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from .errors import ThermwitError
from .numerics import (
    chiral_eigenvalues,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    partial_transpose,
    root_bracket,
)
from .systems import (
    DimerParams,
    Graph,
    PureState,
    Spectrum,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    build_stabilizer_hamiltonian,
    dicke_state,
    dimer_spectrum,
    graph_state,
    odd_weight_mask,
    read_edge_list,
    stabilizer_spectrum,
    toy_spectrum,
    write_edge_list,
)
from .thermal import (
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function_alpha_gamma,
    log_population,
    thermal_density_matrix,
)
from .witness import (
    TransitionResult,
    concurrence_vanishing_temperature,
    dimer_condition_margin,
    flip_probability_from_temperature,
    ground_crossing,
    noise_threshold,
    stabilizer_t_trans,
    toy_t0,
    toy_t_alpha,
    transition_temperature,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "BoundKind",
    "DEFAULT_GRID",
    "DimerParams",
    "Graph",
    "GridSpec",
    "PureState",
    "RobustnessBound",
    "RunConfig",
    "Spectrum",
    "ThermwitError",
    "ToySpectrumParams",
    "TransitionResult",
    "bipartite_pure_robustness",
    "bound_from_relative_entropy",
    "build_dimer_hamiltonian",
    "build_stabilizer_hamiltonian",
    "chiral_eigenvalues",
    "concurrence_two_qubit",
    "concurrence_vanishing_temperature",
    "dicke_overlap_closed",
    "dicke_robustness",
    "dicke_state",
    "dimer_condition_margin",
    "dimer_spectrum",
    "exp_or_inf",
    "flip_probability_from_temperature",
    "geometric_measure_als",
    "graph_state",
    "ground_crossing",
    "hermitian_eigendecompose",
    "hermitian_eigenvalues",
    "load_config",
    "log_ground_population_alpha_closed",
    "log_partition_function_alpha_gamma",
    "log_population",
    "noise_threshold",
    "odd_weight_mask",
    "partial_transpose",
    "ppt_min_eigenvalue",
    "read_edge_list",
    "root_bracket",
    "singlet_robustness",
    "stabilizer_spectrum",
    "stabilizer_t_trans",
    "thermal_density_matrix",
    "toy_spectrum",
    "toy_t0",
    "toy_t_alpha",
    "transition_temperature",
    "write_edge_list",
]
