"""Curve fitting of the time-scaled delay and rise time (Fig. 6).

Section IV's key observation: in scaled time ``tau = w_n t`` the step
response (eq. 32) depends on zeta alone, so the scaled 50% delay and
scaled 10-90% rise time are one-variable functions of zeta. The paper
computes them numerically on a zeta grid and fits closed forms (eqs. 33
and 34); dividing by ``w_n`` then yields the real-time metrics at any
node (eqs. 35-36).

This module reproduces the whole procedure:

* :func:`scaled_delay_exact` / :func:`scaled_rise_exact` — the numerically
  exact scaled metrics (root-finding on the closed-form scaled step
  response),
* :func:`fit_delay` / :func:`fit_rise` — re-run the least-squares fits,
* :func:`scaled_delay` / :func:`scaled_rise` — the fitted closed forms
  used everywhere else in the library.

For the 50% delay we use the paper's published eq. 33,
``1.047 exp(-zeta/0.85) + 1.39 zeta``, which our refit machinery confirms
(max relative error 2.5% over zeta in [0.02, 8], and a refit of the same
functional family lands on coefficients of the same quality — see
``tests/analysis/test_fitting.py``).

The published rise-time coefficients of eq. 34 did not survive in the
available scan of the paper, so the library carries its own fit, produced
by exactly the procedure above: a cubic-over-quadratic rational whose
max relative error over zeta in [0.02, 8] is 2.6% — the same error class
as eq. 33. Both asymptotics are right by construction: it approaches the
exact ``tau_r = ln(81)/... ~ 4.39 zeta`` single-pole behaviour for large
zeta and the lossless-ring value ``acos(0.1) - acos(0.9) = 1.02`` at
zeta -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import FittingError
from .second_order import SecondOrderModel

__all__ = [
    "scaled_step_response",
    "scaled_threshold_crossing",
    "scaled_delay_exact",
    "scaled_rise_exact",
    "scaled_delay",
    "scaled_rise",
    "FitResult",
    "fit_delay",
    "fit_rise",
    "DELAY_FIT_COEFFICIENTS",
    "RISE_FIT_COEFFICIENTS",
]

#: Published eq. 33 coefficients: tau_50 = a exp(-zeta/b) + c zeta.
DELAY_FIT_COEFFICIENTS: Tuple[float, float, float] = (1.047, 0.85, 1.39)

#: This library's eq.-34 refit (see module docstring):
#: tau_r = (n0 + n1 z + n2 z^2 + n3 z^3) / (1 + d1 z + d2 z^2).
RISE_FIT_COEFFICIENTS: Tuple[float, float, float, float, float, float] = (
    0.97800,
    0.74802,
    -2.21472,
    5.29490,
    -0.81759,
    1.24810,
)

#: Default zeta grid for refits: log-dense near the underdamped knee.
_DEFAULT_GRID = np.concatenate(
    [np.linspace(0.02, 1.0, 40), np.geomspace(1.02, 8.0, 80)]
)


def scaled_step_response(zeta: float, tau: np.ndarray) -> np.ndarray:
    """Eq. 32: normalized step response in scaled time for one zeta."""
    return SecondOrderModel(zeta, 1.0).scaled_step_response(np.asarray(tau, float))


def scaled_threshold_crossing(zeta: float, level: float) -> float:
    """First scaled time where the normalized step response hits ``level``.

    For underdamped zeta the crossing must precede the first peak at
    ``tau = pi / sqrt(1 - zeta^2)``, which gives a guaranteed bracket;
    for monotone responses the bracket is grown geometrically.
    """
    if not 0.0 < level < 1.0:
        raise FittingError(f"threshold level must be in (0, 1), got {level!r}")
    if zeta <= 0.0 or not math.isfinite(zeta):
        raise FittingError(f"zeta must be positive and finite, got {zeta!r}")
    from scipy.optimize import brentq

    model = SecondOrderModel(zeta, 1.0)

    def error(tau: float) -> float:
        return float(model.scaled_step_response(np.array([tau]))[0]) - level

    if zeta < 1.0:
        hi = math.pi / math.sqrt(1.0 - zeta * zeta)
    else:
        hi = 1.0
        while error(hi) < 0.0:
            hi *= 2.0
            if hi > 1e9:
                raise FittingError("threshold crossing bracket failed")
    return float(brentq(error, 1e-15, hi, xtol=1e-13, rtol=1e-13))


def scaled_delay_exact(zeta: float) -> float:
    """Numerically exact scaled 50% delay (a Fig. 6 data point)."""
    return scaled_threshold_crossing(zeta, 0.5)


def scaled_rise_exact(zeta: float) -> float:
    """Numerically exact scaled 10-90% rise time (a Fig. 6 data point)."""
    return scaled_threshold_crossing(zeta, 0.9) - scaled_threshold_crossing(
        zeta, 0.1
    )


def scaled_delay(zeta: float | np.ndarray) -> float | np.ndarray:
    """Eq. 33: fitted scaled 50% delay, ``1.047 e^(-zeta/0.85) + 1.39 zeta``.

    Continuous over all damping conditions; approaches ``2 ln 2 * zeta``
    (the Elmore/Wyatt limit) for large zeta and ``pi/3`` at zeta -> 0.
    """
    a, b, c = DELAY_FIT_COEFFICIENTS
    zeta = np.asarray(zeta, dtype=float)
    out = a * np.exp(-zeta / b) + c * zeta
    return float(out) if out.ndim == 0 else out


def scaled_rise(zeta: float | np.ndarray) -> float | np.ndarray:
    """Eq. 34 (refit): fitted scaled 10-90% rise time.

    A cubic-over-quadratic rational in zeta; see the module docstring for
    why this library re-derived the coefficients.
    """
    n0, n1, n2, n3, d1, d2 = RISE_FIT_COEFFICIENTS
    zeta = np.asarray(zeta, dtype=float)
    numerator = n0 + zeta * (n1 + zeta * (n2 + zeta * n3))
    denominator = 1.0 + zeta * (d1 + zeta * d2)
    out = numerator / denominator
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FitResult:
    """Outcome of re-running the paper's fitting procedure."""

    coefficients: Tuple[float, ...]
    max_relative_error: float
    zeta_grid: Tuple[float, ...]
    form: str

    def __call__(self, zeta: float | np.ndarray) -> float | np.ndarray:
        zeta = np.asarray(zeta, dtype=float)
        out = _FORMS[self.form](zeta, *self.coefficients)
        return float(out) if out.ndim == 0 else out


def _exp_plus_linear(z: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    return a * np.exp(-z / b) + c * z


def _cubic_rational(
    z: np.ndarray, n0: float, n1: float, n2: float, n3: float, d1: float, d2: float
) -> np.ndarray:
    return (n0 + z * (n1 + z * (n2 + z * n3))) / (1.0 + z * (d1 + z * d2))


_FORMS: dict[str, Callable] = {
    "exp_plus_linear": _exp_plus_linear,
    "cubic_rational": _cubic_rational,
}

_INITIAL_GUESS = {
    "exp_plus_linear": (1.0, 0.8, 2.0 * math.log(2.0)),
    "cubic_rational": (1.0, 0.5, 0.0, 4.4, 0.0, 1.0),
}


def _fit_metric(
    metric: Callable[[float], float],
    zeta_grid: Optional[Sequence[float]],
    form: str,
) -> FitResult:
    if form not in _FORMS:
        raise FittingError(f"unknown fit form {form!r}; options: {sorted(_FORMS)}")
    grid = np.asarray(
        _DEFAULT_GRID if zeta_grid is None else list(zeta_grid), dtype=float
    )
    if grid.size < 8:
        raise FittingError("fit grid needs at least 8 zeta points")
    values = np.array([metric(z) for z in grid])
    from scipy.optimize import curve_fit

    try:
        coefficients, _ = curve_fit(
            _FORMS[form],
            grid,
            values,
            p0=_INITIAL_GUESS[form],
            sigma=values,  # relative-error weighting
            maxfev=200000,
        )
    except RuntimeError as exc:
        raise FittingError(f"curve fit did not converge: {exc}") from None
    fitted = _FORMS[form](grid, *coefficients)
    max_rel = float(np.max(np.abs(fitted - values) / values))
    return FitResult(
        coefficients=tuple(float(c) for c in coefficients),
        max_relative_error=max_rel,
        zeta_grid=tuple(float(z) for z in grid),
        form=form,
    )


def fit_delay(
    zeta_grid: Optional[Sequence[float]] = None, form: str = "exp_plus_linear"
) -> FitResult:
    """Re-run the eq. 33 fit from scratch (the Fig. 6 procedure)."""
    return _fit_metric(scaled_delay_exact, zeta_grid, form)


def fit_rise(
    zeta_grid: Optional[Sequence[float]] = None, form: str = "cubic_rational"
) -> FitResult:
    """Re-run the eq. 34 fit from scratch (the Fig. 6 procedure)."""
    return _fit_metric(scaled_rise_exact, zeta_grid, form)
