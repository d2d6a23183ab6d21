"""Zero secrecy rate probability of RIS- and UAV-aided multiuser downlinks.

Monte-Carlo and closed-form evaluation of the probability that a randomly
located aerial eavesdropper denies any positive secrecy rate, for
fully-connected and single-connected RIS architectures under round-robin
and proportional-fair scheduling, plus the hovering-altitude optimization
of the aerial BS.
"""

from .analytic import (AnalyticZsrp, ClosedFormParams, cdf_Z_quadrature,
                       cdf_Z_single, cdf_power_sum_order_stat,
                       enumerate_subset_terms, zsrp_for_scheme, zsrp_pfs,
                       zsrp_rs)
from .bdris import (PhaseDecomposition, assemble_theta,
                    construct_aligning_unitary, fc_cascaded_gain,
                    fc_cascaded_gain_via_theta, optimal_phases,
                    sc_cascaded_gain)
from .errors import (AccuracyError, AnalyticUnavailableError, CapacityError,
                     ConfigError)
from .experiments import (ExperimentSpec, format_csv, load_config,
                          run_experiment, write_csv)
from .fading import FadingParams, cdf_S, pdf_W, sample_S, sample_W
from .optimize import (AltitudeResult, AltitudeSearchSpec, golden_section_min,
                       optimal_altitude)
from .propagation import (AirGroundParams, EvePlacement, ScenarioGeometry,
                          bs_ris_gain, eve_wiretap_gain, los_probability,
                          pathloss_exponent_air, ris_user_gain,
                          sample_eve_distance, sample_eve_placement)
from .scheduling import (SchemeId, select_fcsi_pfs, select_gcsi_pfs,
                         select_round_robin)
from .secrecy import (ScenarioConfig, ZsrpEstimate, capacity_eve,
                      capacity_main, run_monte_carlo, run_monte_carlo_many,
                      zsr_indicator)
from .specfun import UnderflowWarning, bessel_k, ln_gamma, meijer_g_m0

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "AltitudeResult", "AltitudeSearchSpec", "AnalyticZsrp",
    "AnalyticUnavailableError", "AirGroundParams", "CapacityError",
    "ClosedFormParams", "ConfigError", "EvePlacement", "ExperimentSpec",
    "FadingParams", "PhaseDecomposition", "ScenarioConfig",
    "ScenarioGeometry", "SchemeId", "UnderflowWarning", "ZsrpEstimate",
    "assemble_theta", "bessel_k", "bs_ris_gain", "capacity_eve",
    "capacity_main", "cdf_S", "cdf_Z_quadrature", "cdf_Z_single",
    "cdf_power_sum_order_stat", "construct_aligning_unitary",
    "enumerate_subset_terms", "eve_wiretap_gain", "fc_cascaded_gain",
    "fc_cascaded_gain_via_theta", "format_csv", "golden_section_min",
    "ln_gamma", "load_config", "los_probability", "meijer_g_m0",
    "optimal_altitude", "optimal_phases", "pathloss_exponent_air", "pdf_W",
    "ris_user_gain", "run_experiment", "run_monte_carlo",
    "run_monte_carlo_many", "sample_S",
    "sample_W", "sample_eve_distance", "sample_eve_placement",
    "sc_cascaded_gain", "select_fcsi_pfs", "select_gcsi_pfs",
    "select_round_robin", "write_csv", "zsr_indicator", "zsrp_for_scheme",
    "zsrp_pfs", "zsrp_rs",
]
