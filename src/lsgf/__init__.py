"""Localized spectral graph filter frames.

Filter-bank design on graph Laplacian spectra, fast Chebyshev filtering,
frame analysis / synthesis with certified inverses, spectral and energy
CDF estimation, center-vertex sampling, and denoising / compression tasks
built on top of the resulting dictionaries.
"""

from .chebyshev import (ChebyshevApprox, apply_poly_bank,
                        apply_poly_bank_adjoint, apply_poly_filter,
                        chebyshev_fit, jackson_coefficients, poly_atom,
                        sup_error)
from .filters import (FilterBank, Kernel, Warping, effective_support,
                      make_adapted_translates, make_dct_bands,
                      make_ideal_partition, make_log_warped_translates,
                      make_sgwt, make_uniform_translates,
                      shift_edges_to_sparse_regions)
from .frames import (Coefficients, Dictionary, FrameBounds, InverseInfo,
                     analysis, atom_norm_estimate, atom_norms_exact,
                     cumulative_coherence, dictionary_exact,
                     dictionary_poly, frame_bounds, inverse_cg,
                     inverse_frame_iteration, inverse_single_pass,
                     single_pass_error_bound, synthesis)
from .graphs import (EigenDecomposition, Laplacian, SparseGraph, as_signal,
                     build_laplacian, eigendecompose, lanczos_lambda_max,
                     quadratic_form)
from .generators import (cycle_graph, erdos_renyi_graph, grid_graph,
                         path_graph, sensor_graph)
from .sampling import (CenterSets, allocate_samples, band_reconstruct,
                       default_band_penalty, draw_centers, greedy_centers,
                       nonuniform_weights, signal_adapted_weights,
                       uniform_weights, uniqueness_partition)
from .spectrum import (SpectralCDF, estimate_energy_cdf,
                       estimate_spectral_cdf, exact_spectral_cdf)
from .tasks import (DenoiseConfig, Metrics, OmpResult, add_noise,
                    compress_hard_threshold, compress_omp, denoise, metrics,
                    omp, reconstruct, soft_threshold, sure_threshold_band,
                    sure_thresholds)

__version__ = "0.1.0"

__all__ = [
    "ChebyshevApprox", "apply_poly_bank", "apply_poly_bank_adjoint",
    "apply_poly_filter", "chebyshev_fit", "jackson_coefficients",
    "poly_atom", "sup_error", "FilterBank", "Kernel", "Warping",
    "effective_support", "make_adapted_translates", "make_dct_bands",
    "make_ideal_partition", "make_log_warped_translates", "make_sgwt",
    "make_uniform_translates", "shift_edges_to_sparse_regions",
    "Coefficients", "Dictionary", "FrameBounds", "InverseInfo", "analysis",
    "atom_norm_estimate", "atom_norms_exact", "cumulative_coherence",
    "dictionary_exact", "dictionary_poly", "frame_bounds", "inverse_cg",
    "inverse_frame_iteration", "inverse_single_pass",
    "single_pass_error_bound", "synthesis", "EigenDecomposition",
    "Laplacian", "SparseGraph", "as_signal", "build_laplacian",
    "eigendecompose", "lanczos_lambda_max", "quadratic_form", "cycle_graph",
    "erdos_renyi_graph", "grid_graph", "path_graph", "sensor_graph",
    "CenterSets", "allocate_samples", "band_reconstruct",
    "default_band_penalty", "draw_centers", "greedy_centers",
    "nonuniform_weights", "signal_adapted_weights", "uniform_weights",
    "uniqueness_partition", "SpectralCDF", "estimate_energy_cdf",
    "estimate_spectral_cdf", "exact_spectral_cdf", "DenoiseConfig",
    "Metrics", "OmpResult", "add_noise", "compress_hard_threshold",
    "compress_omp", "denoise", "metrics", "omp", "reconstruct",
    "soft_threshold", "sure_threshold_band", "sure_thresholds",
]
