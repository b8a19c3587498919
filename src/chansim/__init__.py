"""Stochastic channel-model simulations for massive MIMO and XL-MIMO.

Correlation-based and geometry-based spatial correlation models, a
non-stationary XL-MIMO channel generator with visibility regions, linear
precoding (CB/ZF), capacity and SINR metrics, and a seeded Monte Carlo
sweep harness with CSV output.
"""

from .cbsm import (ExponentialSpec, draw_shadowing, exponential_correlation,
                   exponential_with_shadowing, uncorrelated_with_shadowing)
from .config import ExperimentConfig, SweepSpec, parse_config, config_to_text
from .errors import (ChansimError, ConfigError, InvalidMatrix, InvalidParam,
                     IoError, NotPSD, QuadratureWarning, RankDeficient,
                     ValidityWarning, ZeroColumn, ZeroVector)
from .gbsm import (AngularSpec, QuadratureConfig, UlaGeometry, UpaGeometry,
                   draw_scatterer_angles, gaussian_ula_closed,
                   gaussian_ula_numeric, gaussian_ula_shadowed, gaussian_upa,
                   onering_ula, onering_upa, upa_antenna_index)
from .linalg import (check_hermitian, complex_gaussian, condition_number,
                     log2_det_ipm, psd_eigvals, psd_sqrt, sample_correlated)
from .metrics import (capacity_single, capacity_ub, correlation_coefficient,
                      db_to_linear, mean_with_stderr, sinr_per_user)
from .precoding import cb_precoder, normalize_columns, zf_precoder
from .presets import preset, preset_names
from .registry import build_correlation
from .runner import RunResult, emit_csv, run_experiment, trial_value
from .xlmimo import (Cluster, ClusterCorrelation, ClusterScheme, PathlossParams,
                     XlScenario, assemble_channel_matrix, build_scenario,
                     cluster_channel, pathloss_per_antenna,
                     place_clusters, position_vr, rayleigh_distance,
                     user_channel, vr_mask_chain)

__version__ = "0.1.0"
