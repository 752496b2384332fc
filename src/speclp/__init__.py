"""Spectral multiplier operators, dyadic decompositions, and square-function
verification on a discretized torus."""

from .errors import (AuditError, ConfigError, MultiplierError, QuadratureError,
                     SpecLPError, SymbolEvalError, WindowError)
from .spectral import (Field, GridSpec, SpectralField, apply_multiplier,
                       apply_multiplier_array, export_field_csv, forward_transform,
                       inverse_transform, load_field, lp_norm, mean_remove, refine_field,
                       save_field, spectral_shift)
from .symbols import (AuditReport, SymbolSpec, audit_s1, audit_s2, check_homogeneity,
                      eval_symbol, frac_lap_symbol, get_symbol, heat_symbol,
                      poisson_symbol, power_symbol, power_t_symbol)
from .evolution import (EvolutionMultiplier, TimeIntegralRule, apply_evolution,
                        build_multiplier, dump_kernel, dump_multiplier, kernel_field,
                        multiplier_values, verify_composition)
from .lp_decomp import (DyadicDecomposition, besov_norm0, block, block_energy_table,
                        build_decomposition, bump_profile, chi_profile,
                        export_block_energy_csv, low_part, sobolev_norm)
from .gfunction import (INF, RatioReport, TimeWindow, build_time_window,
                        check_infinite_window_legal, explicit_q2_constant,
                        g_function, ratio_report)
from .kernel_audit import (DecayFitReport, EnvelopeReport, HormanderReport,
                           decay_fit_space, decay_fit_time, dyadic_l1_envelope,
                           fractional_laplacian_pv, gradient_kernel,
                           hormander_integral, hormander_report, pv_normalization)
from .corpus import (ANNULUS, BANDLIMITED_RANDOM, GAUSSIAN_MIX, CorpusEntry,
                     generate_corpus)

__version__ = "0.1.0"
