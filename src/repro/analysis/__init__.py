"""The paper's contribution: equivalent Elmore delay for RLC trees.

Submodules follow the paper's structure:

* :mod:`~repro.analysis.moments` — the O(n) sums of the Appendix plus a
  per-name view of the exact arbitrary-order moment engine,
* :mod:`~repro.analysis.second_order` — the per-node second-order model
  (Section III),
* :mod:`~repro.analysis.fitting` — the Fig. 6 scaled-metric fits
  (eqs. 33-34) and the machinery to re-derive them,
* :mod:`~repro.analysis.delay` — closed-form 50% delay and rise time
  (eqs. 35-38) with the RC Elmore limit,
* :mod:`~repro.analysis.oscillation` — overshoots and settling time
  (eqs. 39-42),
* :mod:`~repro.analysis.response` — closed-form waveforms for shaped
  inputs (eqs. 31, 44-48) and convolution for arbitrary ones,
* :mod:`~repro.analysis.analyzer` — :class:`TreeAnalyzer`, the one-shot
  front end.
"""

from .analyzer import NodeTiming, TreeAnalyzer
from .arbitrary_input import (
    ArbitraryInputMetrics,
    input_crossing,
    response_metrics,
)
from .delay import (
    delay_50,
    delay_50_from_sums,
    elmore_delay,
    elmore_time_constant,
    rise_time,
    rise_time_from_sums,
    wyatt_rise_time,
)
from .fitting import (
    DELAY_FIT_COEFFICIENTS,
    RISE_FIT_COEFFICIENTS,
    FitResult,
    fit_delay,
    fit_rise,
    scaled_delay,
    scaled_delay_exact,
    scaled_rise,
    scaled_rise_exact,
    scaled_step_response,
    scaled_threshold_crossing,
)
from .moments import (
    MomentSummary,
    capacitive_loads,
    elmore_sums,
    exact_moments,
    inductance_sums,
    moment_summary,
    multiplication_count,
    second_order_sums,
)
from .oscillation import (
    Overshoot,
    overshoot_fraction,
    overshoot_time,
    overshoot_train,
    settling_oscillation_count,
    settling_time,
)
from .response import convolution_response, model_response
from .second_order import SecondOrderModel
from .sensitivity import (
    SectionSensitivity,
    SensitivityReport,
    delay_sensitivities,
    scaled_delay_derivative,
    scaled_rise_derivative,
)

__all__ = [
    "TreeAnalyzer",
    "NodeTiming",
    "SecondOrderModel",
    "second_order_sums",
    "elmore_sums",
    "inductance_sums",
    "capacitive_loads",
    "exact_moments",
    "moment_summary",
    "MomentSummary",
    "multiplication_count",
    "delay_50",
    "rise_time",
    "delay_50_from_sums",
    "rise_time_from_sums",
    "elmore_delay",
    "elmore_time_constant",
    "wyatt_rise_time",
    "scaled_delay",
    "scaled_rise",
    "scaled_delay_exact",
    "scaled_rise_exact",
    "scaled_step_response",
    "scaled_threshold_crossing",
    "fit_delay",
    "fit_rise",
    "FitResult",
    "DELAY_FIT_COEFFICIENTS",
    "RISE_FIT_COEFFICIENTS",
    "Overshoot",
    "overshoot_fraction",
    "overshoot_time",
    "overshoot_train",
    "settling_oscillation_count",
    "settling_time",
    "model_response",
    "convolution_response",
    "SectionSensitivity",
    "SensitivityReport",
    "delay_sensitivities",
    "scaled_delay_derivative",
    "scaled_rise_derivative",
    "ArbitraryInputMetrics",
    "input_crossing",
    "response_metrics",
]
