"""Simulation and analysis toolkit for a frequency-conversion quantum interface.

The package models a pulsed photon-pair source whose one arm is converted
between visible and telecom bands by pump-driven three-wave mixing, and
the measurements built around it: pump-power efficiency sweeps, heralded
intensity correlations, time-bin encode/decode interferometry, and
two-qubit state tomography with entanglement metrics.
"""

from .config import ConfigError, ExperimentConfig, PRESETS
from .conversion import (EfficiencyFit, EfficiencyModel, conversion_efficiency,
                         fit_efficiency_curve, pump_dephasing_factor)
from .counting import (CoincidenceWindow, CountSummary, DelayHistogram,
                       FirstClicks, InsufficientEventsError, count_summary,
                       delay_histogram, first_clicks, g2_at_offset,
                       g2_zero_from_counts, select_window)
from .metrics import (ChshResult, chsh_assessment, concurrence,
                      entanglement_of_formation, fidelity)
from .qubits import (PHI_PLUS, check_density_matrix, convert_timebin_qubit,
                     end_to_end_state, entangled_pair_state, timebin_to_pol)
from .sources import (ChannelClicks, EventStream, expected_hbt_rates,
                      generate_hbt_stream, generate_mzi_stream, pair_distribution)
from .tomography import (MeasurementSetting, MleResult, load_records,
                         mle_reconstruct, save_records, simulate_counts,
                         standard_settings, subtract_background)

__version__ = "0.1.0"

__all__ = [
    "ChannelClicks", "ChshResult", "CoincidenceWindow", "ConfigError",
    "CountSummary", "DelayHistogram", "EfficiencyFit", "EfficiencyModel",
    "EventStream", "ExperimentConfig", "FirstClicks", "InsufficientEventsError",
    "MeasurementSetting", "MleResult", "PHI_PLUS", "PRESETS",
    "check_density_matrix",
    "chsh_assessment", "concurrence", "conversion_efficiency",
    "convert_timebin_qubit", "count_summary", "delay_histogram",
    "end_to_end_state", "entangled_pair_state", "entanglement_of_formation",
    "expected_hbt_rates", "fidelity", "fit_efficiency_curve",
    "first_clicks", "g2_at_offset",
    "g2_zero_from_counts", "generate_hbt_stream", "generate_mzi_stream",
    "load_records", "mle_reconstruct", "pair_distribution",
    "pump_dephasing_factor",
    "save_records", "select_window", "simulate_counts", "standard_settings",
    "subtract_background", "timebin_to_pol",
]
