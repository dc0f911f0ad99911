"""Closed-form metric formulas as masked array kernels.

Every metric of :class:`~repro.analysis.analyzer.TreeAnalyzer` is an
O(1) formula in the node sums ``(T_RC, T_LC)`` — eqs. 29-30 for the
equivalent (zeta, omega_n), the fitted eqs. 33-36 for delay and rise
time, eqs. 39-42 for overshoot and settling. This module evaluates them
over whole arrays at once, for any shape ``(...,)`` of sums — one tree's
``(n,)`` vector or a batch's ``(S, n)`` matrix.

The RC limit (``T_LC == 0``) is handled by elementwise masking rather
than branching: Elmore/Wyatt delay and rise time, ``zeta = omega_n =
inf``, zero overshoot, and dominant-pole band entry for settling. All
intermediate garbage lanes (``inf/inf`` at masked positions) are
computed under
``np.errstate(all="ignore")`` and discarded by the masks, so no floating
point warnings escape — the kernels are safe under
``filterwarnings = error``.

:func:`scalar_metrics` is the O(1) twin for one in-domain node: the
same operations in the same association on Python floats, so a point
read and a table read give the same bits. These two are the
only evaluation of the closed forms per node; :func:`check_domain` is
the one per-node test of where they apply, raising the typed error a
read of an out-of-domain row surfaces. The property suite pins both
kernels within 1e-12 of the dict oracle in ``tests/conftest.py`` and
the O(n^2) path-tracing oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis.fitting import DELAY_FIT_COEFFICIENTS, RISE_FIT_COEFFICIENTS
from ..errors import ConfigurationError, ElementValueError, ReductionError

__all__ = [
    "MetricArrays",
    "metrics_from_sums",
    "scalar_metrics",
    "check_domain",
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
    """
    if not 0.0 < settle_band < 1.0:
        raise ConfigurationError("settle_band must be in (0, 1)")


@dataclass(frozen=True)
class MetricArrays:
    """Every closed-form metric, evaluated elementwise over sum arrays.

    All fields share the shape of the ``(T_RC, T_LC)`` inputs. RC-limit
    entries carry ``zeta = omega_n = inf`` with the Elmore/Wyatt
    metrics. A metric left out of
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
    ``T_LC > 0``, negative or non-finite sums) come out non-finite
    rather than raising; :func:`check_domain` raises their typed error per
    row, and :func:`fast_path_eligible` tests a whole array at once.

    ``select`` restricts evaluation to the named metrics (the sums are
    always carried); a 1000x1000 batch that only reads ``delay_50``
    skips more than half the kernel work. Unselected fields come out
    ``None``.

    ``settle_band`` must lie in ``(0, 1)`` (see
    :func:`validate_settle_band`); values outside that domain raise
    :class:`~repro.errors.ConfigurationError` instead of a raw
    ``math domain error`` (``<= 0``) or silently nonsensical settling
    times (``>= 1``).
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


def scalar_metrics(t_rc: float, t_lc: float, settle_band: float) -> Dict[str, float]:
    """Every closed-form metric at one ``(T_RC, T_LC)`` point.

    The O(1) twin of :func:`metrics_from_sums` for a single in-domain
    node: the same operations in the same association, on Python floats
    (IEEE-identical to the array lanes for ``+ - * /`` and ``sqrt``),
    with the two exponentials taken through ``np.exp`` so they run the
    array kernel's loop. The result matches the vectorized table bit for
    bit without the array overhead that would dominate a point query.
    On the rare input where Python float arithmetic raises instead of
    producing an IEEE infinity (a zero divisor, an infinite ceiling) the
    row is evaluated by :func:`metrics_from_sums` itself. Call
    :func:`check_domain` first; out-of-domain sums give garbage here.
    """
    t_rc = float(t_rc)
    t_lc = float(t_lc)
    neg_log_band = -math.log(settle_band)
    if t_lc == 0.0:
        return {
            "t_rc": t_rc,
            "t_lc": t_lc,
            "zeta": math.inf,
            "omega_n": math.inf,
            "delay_50": _LN2 * t_rc,
            "rise_time": _LN9 * t_rc,
            "overshoot": 0.0,
            "settling": neg_log_band * t_rc,
        }
    a, b, c = DELAY_FIT_COEFFICIENTS
    n0, n1, n2, n3, d1, d2 = RISE_FIT_COEFFICIENTS
    try:
        root_lc = math.sqrt(t_lc)
        omega_n = 1.0 / root_lc
        zeta = 0.5 * t_rc * omega_n  # the model's damping, as the kernel's
        delay = (float(np.exp(-zeta / b)) * a + c * zeta) / omega_n
        rise = (
            (n0 + zeta * (n1 + zeta * (n2 + zeta * n3)))
            / (1.0 + zeta * (d1 + zeta * d2))
            / omega_n
        )
        overshoot = 0.0
        if zeta < 1.0:
            radical = math.sqrt(1.0 - zeta * zeta)
            per_cycle = math.pi * zeta / radical
            fraction = float(np.exp(-per_cycle))
            if fraction >= OVERSHOOT_THRESHOLD:
                overshoot = fraction
            cycles = max(math.ceil(neg_log_band / per_cycle), 1.0)
            settling = cycles * math.pi / (omega_n * radical)
        else:
            slow = 1.0 / (zeta * (1.0 + math.sqrt(1.0 - 1.0 / (zeta * zeta))))
            settling = neg_log_band / (omega_n * slow)
    except (ArithmeticError, ValueError):
        row = metrics_from_sums(np.array([t_rc]), np.array([t_lc]), settle_band)
        return {name: float(getattr(row, name)[0]) for name in METRIC_NAMES}
    return {
        "t_rc": t_rc,
        "t_lc": t_lc,
        "zeta": 0.5 * t_rc / root_lc,
        "omega_n": omega_n,
        "delay_50": delay,
        "rise_time": rise,
        "overshoot": overshoot,
        "settling": settling,
    }


def check_domain(t_rc: float, t_lc: float, node: str) -> None:
    """Raise :class:`~repro.errors.ElementValueError` unless one node's
    sums lie inside the closed forms' domain.

    The domain is finite sums with ``T_LC >= 0`` and ``T_RC > 0`` —
    ``T_RC >= 0`` in the RC limit ``T_LC = 0``. Every point read and
    table read of a metric row passes through here; the kernels
    themselves tabulate such rows as NaN.
    """
    if not (
        math.isfinite(t_rc)
        and math.isfinite(t_lc)
        and t_lc >= 0.0
        and (t_rc >= 0.0 if t_lc == 0.0 else t_rc > 0.0)
    ):
        raise ElementValueError(
            f"node {node!r}: sums (T_RC={t_rc!r}, T_LC={t_lc!r}) fall "
            "outside the closed forms' domain; check the element values"
        )


def fast_path_eligible(t_rc: np.ndarray, t_lc: np.ndarray) -> bool:
    """True when every entry is inside the closed forms' domain.

    The whole-array form of :func:`check_domain`: non-finite sums from
    corrupted values, ``T_RC <= 0`` where a second-order model is
    required, or negative ``T_RC`` in the RC limit make it False.
    """
    t_rc = np.asarray(t_rc, dtype=float)
    t_lc = np.asarray(t_lc, dtype=float)
    if not (np.all(np.isfinite(t_rc)) and np.all(np.isfinite(t_lc))):
        return False
    if np.any(t_lc < 0.0):
        return False
    rc = t_lc == 0.0
    return bool(np.all(np.where(rc, t_rc >= 0.0, t_rc > 0.0)))
