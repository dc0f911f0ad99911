"""Closed-form metric formulas as masked array kernels.

Every metric of :class:`~repro.analysis.analyzer.TreeAnalyzer` is an
O(1) formula in the node sums ``(T_RC, T_LC)`` — eqs. 29-30 for the
equivalent (zeta, omega_n), the fitted eqs. 33-36 for delay and rise
time, eqs. 39-42 for overshoot and settling. This module evaluates them
over whole arrays at once, for any shape ``(...,)`` of sums — one tree's
``(n,)`` vector or a batch's ``(S, n)`` matrix.

The RC limit (``T_LC == 0``) is handled by elementwise masking rather
than branching, mirroring the scalar dispatch exactly: Elmore/Wyatt
delay and rise time, ``zeta = omega_n = inf``, zero overshoot, and
dominant-pole band entry for settling. All intermediate garbage lanes
(``inf/inf`` at masked positions) are computed under
``np.errstate(all="ignore")`` and discarded by the masks, so no floating
point warnings escape — the kernels are safe under
``filterwarnings = error``.

The formulas replicate the scalar code paths operation for operation
(same association, same constants), so kernel outputs agree with
:mod:`repro.analysis` to the last few ulps; the property suite enforces
1e-12 relative agreement against both the scalar metrics and the O(n^2)
path-tracing oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..analysis.fitting import DELAY_FIT_COEFFICIENTS, RISE_FIT_COEFFICIENTS
from ..errors import ConfigurationError, ReductionError

__all__ = [
    "MetricArrays",
    "metrics_from_sums",
    "fast_path_eligible",
    "validate_settle_band",
]

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

#: Field order of :class:`MetricArrays`.
METRIC_NAMES = (
    "t_rc",
    "t_lc",
    "zeta",
    "omega_n",
    "delay_50",
    "rise_time",
    "overshoot",
    "settling",
)

#: Ringing below this fraction of the final value does not count as an
#: overshoot — the same default as
#: :func:`repro.analysis.oscillation.overshoot_train`.
OVERSHOOT_THRESHOLD = 1e-4


def _scaled_delay(zeta):
    """Eq. 33 over arrays: the same expression as
    :func:`repro.analysis.fitting.scaled_delay` (same coefficients, same
    association), evaluated in place."""
    a, b, c = DELAY_FIT_COEFFICIENTS
    # a * exp(-zeta / b) + c * zeta, evaluated in place.
    scaled = -zeta
    scaled /= b
    scaled = np.exp(scaled)
    scaled *= a
    scaled += c * zeta
    return scaled


def _scaled_rise(zeta):
    """Eq. 34 (refit) over arrays; the exact expression of
    :func:`repro.analysis.fitting.scaled_rise`."""
    n0, n1, n2, n3, d1, d2 = RISE_FIT_COEFFICIENTS
    numerator = n0 + zeta * (n1 + zeta * (n2 + zeta * n3))
    denominator = 1.0 + zeta * (d1 + zeta * d2)
    return numerator / denominator


def validate_settle_band(settle_band: float) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless
    ``0 < settle_band < 1``.

    The settling formulas take ``log(settle_band)``, so a non-positive
    band has no logarithm (a raw ``math domain error`` before this
    check) and a band of 1 or more describes a tolerance the response is
    *always* inside, silently producing zero or negative settling times.
    The scalar :class:`~repro.analysis.analyzer.TreeAnalyzer` raises the
    same typed error for the same domain.
    """
    if not 0.0 < settle_band < 1.0:
        raise ConfigurationError("settle_band must be in (0, 1)")


@dataclass(frozen=True)
class MetricArrays:
    """Every closed-form metric, evaluated elementwise over sum arrays.

    All fields share the shape of the ``(T_RC, T_LC)`` inputs. RC-limit
    entries carry ``zeta = omega_n = inf`` with the Elmore/Wyatt
    metrics, exactly like the scalar analyzer. A metric left out of
    :func:`metrics_from_sums`'s ``select`` is ``None``; the sums
    themselves are always present.
    """

    t_rc: np.ndarray
    t_lc: np.ndarray
    zeta: Optional[np.ndarray] = None
    omega_n: Optional[np.ndarray] = None
    delay_50: Optional[np.ndarray] = None
    rise_time: Optional[np.ndarray] = None
    overshoot: Optional[np.ndarray] = None
    settling: Optional[np.ndarray] = None

    @property
    def elmore_delay(self) -> np.ndarray:
        """The classic RC Elmore (Wyatt) delay, ``ln 2 * T_RC``."""
        return _LN2 * self.t_rc


def metrics_from_sums(
    t_rc: np.ndarray,
    t_lc: np.ndarray,
    settle_band: float = 0.1,
    overshoot_threshold: float = OVERSHOOT_THRESHOLD,
    select: Optional[Sequence[str]] = None,
) -> MetricArrays:
    """Evaluate closed-form metrics over ``(T_RC, T_LC)`` arrays.

    Inputs may have any (broadcast-compatible) shape; outputs share it.
    Entries outside the formulas' domain (``T_RC <= 0`` with
    ``T_LC > 0``, negative or non-finite sums — inputs on which the
    scalar path raises) come out as NaN rather than raising; use
    :func:`fast_path_eligible` to pre-check when scalar-equivalent error
    behaviour is required.

    ``select`` restricts evaluation to the named metrics (the sums are
    always carried); a 1000x1000 batch that only reads ``delay_50``
    skips more than half the kernel work. Unselected fields come out
    ``None``.

    ``settle_band`` must lie in ``(0, 1)`` (see
    :func:`validate_settle_band`); values outside that domain raise
    :class:`~repro.errors.ConfigurationError`, matching the scalar
    analyzer, instead of a raw ``math domain error`` (``<= 0``) or
    silently nonsensical settling times (``>= 1``).
    """
    validate_settle_band(settle_band)
    t_rc = np.asarray(t_rc, dtype=float)
    t_lc = np.asarray(t_lc, dtype=float)
    t_rc, t_lc = np.broadcast_arrays(t_rc, t_lc)
    neg_log_band = -math.log(settle_band)

    if select is None:
        want = set(METRIC_NAMES)
    else:
        want = set(select) | {"t_rc", "t_lc"}
        unknown = want - set(METRIC_NAMES)
        if unknown:
            raise ReductionError(
                f"unknown metrics {sorted(unknown)}; "
                f"choose from {list(METRIC_NAMES)}"
            )
    out = {"t_rc": t_rc, "t_lc": t_lc}
    need_model = bool(want & {"delay_50", "rise_time", "overshoot", "settling"})
    need_ring = bool(want & {"overshoot", "settling"})

    with np.errstate(all="ignore"):
        rc = t_lc == 0.0

        # Equivalent model parameters (eqs. 29-30). ``zeta`` reports the
        # division form the analyzer exposes; ``zeta_model`` is the
        # multiplication form SecondOrderModel.from_sums builds, which
        # is what every metric formula consumes — kept separate so both
        # match their scalar twins bit for bit.
        #
        # Temporaries are dropped as soon as they are dead and combined
        # in place where the operation is unchanged (``x = x * y`` and
        # ``x *= y`` round identically): on a large batch every live
        # intermediate is a full (n, S) block.
        if need_model or want & {"zeta", "omega_n"}:
            root_lc = np.sqrt(t_lc)
        if "zeta" in want:
            out["zeta"] = np.where(rc, np.inf, 0.5 * t_rc / root_lc)
        if need_model or "omega_n" in want:
            # One reciprocal serves omega_n and zeta_model.
            inv_root_lc = 1.0 / root_lc
            del root_lc
            omega_n = np.where(rc, np.inf, inv_root_lc)
            if "omega_n" in want:
                out["omega_n"] = omega_n
            if need_model:
                zeta_model = 0.5 * t_rc
                zeta_model *= np.where(rc, np.nan, inv_root_lc)
            del inv_root_lc

        # Delay and rise time (eqs. 33-36; RC limit: Elmore/Wyatt).
        if "delay_50" in want:
            scaled = _scaled_delay(zeta_model)
            scaled /= omega_n
            out["delay_50"] = np.where(rc, _LN2 * t_rc, scaled)
            del scaled
        if "rise_time" in want:
            scaled = _scaled_rise(zeta_model)
            scaled /= omega_n
            out["rise_time"] = np.where(rc, _LN9 * t_rc, scaled)
            del scaled

        if need_ring:
            # Only underdamped lanes ring (NaN compares False at RC).
            underdamped = zeta_model < 1.0
            radical = np.sqrt(1.0 - zeta_model * zeta_model)

        # Overshoot (eq. 39, first extremum, thresholded like
        # overshoot_train).
        if "overshoot" in want:
            fraction = np.exp(-math.pi * zeta_model / radical)
            out["overshoot"] = np.where(
                underdamped & (fraction >= overshoot_threshold), fraction, 0.0
            )

        # Settling (eq. 42 underdamped; dominant-pole band entry for
        # monotone lanes; RC limit: single-pole band entry).
        if "settling" in want:
            per_cycle = math.pi * zeta_model / radical
            cycles = np.maximum(np.ceil(neg_log_band / per_cycle), 1.0)
            settle_ringing = cycles * math.pi / (omega_n * radical)
            slow = 1.0 / (
                zeta_model
                * (1.0 + np.sqrt(1.0 - 1.0 / (zeta_model * zeta_model)))
            )
            settle_monotone = neg_log_band / (omega_n * slow)
            out["settling"] = np.where(
                rc,
                neg_log_band * t_rc,
                np.where(underdamped, settle_ringing, settle_monotone),
            )

    return MetricArrays(**out)


def fast_path_eligible(t_rc: np.ndarray, t_lc: np.ndarray) -> bool:
    """True when every entry is inside the closed forms' domain.

    The scalar path raises a typed error for nodes outside it
    (non-finite sums from corrupted values, ``T_RC <= 0`` where a
    second-order model is required, negative ``T_RC`` in the RC limit);
    vectorized callers check this up front and fall back to the scalar
    path so those errors surface unchanged.
    """
    t_rc = np.asarray(t_rc, dtype=float)
    t_lc = np.asarray(t_lc, dtype=float)
    if not (np.all(np.isfinite(t_rc)) and np.all(np.isfinite(t_lc))):
        return False
    if np.any(t_lc < 0.0):
        return False
    rc = t_lc == 0.0
    return bool(np.all(np.where(rc, t_rc >= 0.0, t_rc > 0.0)))
