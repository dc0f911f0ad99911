"""Monte-Carlo variation analysis: delay distributions per model.

Statistical timing is where a closed-form delay earns its keep twice
over: thousands of process-variation samples are affordable only if each
sample's delay is a formula, and the *distribution* the formula produces
must track the distribution reality produces. This module samples
log-normal per-section variations of a tree, evaluates the RLC
equivalent Elmore delay and the RC Elmore delay on every sample, and —
for a configurable subset — the exact simulated delay, reporting how
well each model's delay distribution (mean, sigma, quantiles) and
per-sample ranking track the simulated truth.

It also exposes a linearized (gradient-based) sigma estimate built on
:mod:`repro.analysis.sensitivity`: first-order statistical timing at the
cost of a single gradient evaluation, validated against the Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..analysis.sensitivity import delay_sensitivities
from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..engine import compile_tree
from ..errors import ConfigurationError, ElementValueError, ReproError
from ..robustness.guarded import shielded
from ..runtime import ExecutionContext, RuntimeConfig, resolve_context
from ..simulation.exact import ExactSimulator
from ..simulation.measures import delay_50 as measure_delay_50
from ..sweep import (
    DEFAULT_CHUNK,
    compile_sweep,
    const,
    iter_sweep,
    lognormal_factors,
    scenario_space,
)

__all__ = [
    "VariationModel",
    "DelaySamples",
    "VariationStudy",
    "sample_delays",
    "linearized_sigma",
]


@dataclass(frozen=True)
class VariationModel:
    """Independent log-normal per-section variation.

    ``sigma_*`` are the relative (fractional) standard deviations of
    each element value; log-normal keeps every sample positive.
    """

    sigma_resistance: float = 0.1
    sigma_inductance: float = 0.05
    sigma_capacitance: float = 0.1

    def __post_init__(self):
        for label in ("sigma_resistance", "sigma_inductance",
                      "sigma_capacitance"):
            value = getattr(self, label)
            if not 0.0 <= value < 1.0:
                raise ReproError(f"{label} must be in [0, 1), got {value!r}")

    def log_sigmas(self) -> Tuple[float, float, float]:
        """Standard deviations of the underlying normals (R, L, C).

        The log-normal factor ``exp(N(-s^2/2, s))`` with
        ``s = sqrt(log1p(sigma^2))`` has mean 1 and relative standard
        deviation ``sigma``.
        """
        return (
            math.sqrt(math.log1p(self.sigma_resistance**2)),
            math.sqrt(math.log1p(self.sigma_inductance**2)),
            math.sqrt(math.log1p(self.sigma_capacitance**2)),
        )

    def sample_tree(self, tree: RLCTree, rng: np.random.Generator) -> RLCTree:
        """One perturbed copy of ``tree``."""
        sigmas = self.log_sigmas()

        def jitter(_name: str, section: Section) -> Section:
            factors = [
                float(np.exp(rng.normal(-0.5 * s * s, s))) for s in sigmas
            ]
            return Section(
                section.resistance * factors[0],
                section.inductance * factors[1],
                section.capacitance * factors[2],
            )

        return tree.map_sections(jitter)


@dataclass(frozen=True)
class DelaySamples:
    """Delay samples for one node under one model."""

    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sigma(self) -> float:
        """Sample standard deviation (``ddof=1``); NaN below 2 samples.

        ``np.std(ddof=1)`` on a size-1 array divides by zero and emits a
        ``RuntimeWarning`` — a hard crash under promoted warnings — so
        the undefined case returns an explicit NaN instead.
        """
        if self.values.size < 2:
            return float("nan")
        return float(np.std(self.values, ddof=1))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.values, q))

    @property
    def p99(self) -> float:
        """The signoff corner: 99th percentile delay."""
        return self.quantile(0.99)


@dataclass(frozen=True)
class VariationStudy:
    """Monte-Carlo results for one node of one tree."""

    node: str
    rlc: DelaySamples
    rc: DelaySamples
    exact: Optional[DelaySamples]

    def rank_correlation(self, model: str = "rlc") -> float:
        """Spearman rho of per-sample model delays vs exact (requires
        at least 2 exact samples)."""
        if self.exact is None:
            raise ReproError("study ran without exact samples")
        if self.exact.values.size < 2:
            raise ConfigurationError(
                "rank correlation needs at least 2 exact samples, got "
                f"{self.exact.values.size}"
            )
        from scipy.stats import spearmanr

        candidate = self.rlc if model == "rlc" else self.rc
        n = self.exact.values.size
        rho = spearmanr(self.exact.values, candidate.values[:n]).statistic
        return float(rho)


def _factor_prefix(
    sig: np.ndarray, sections: int, count: int, seed: int
) -> np.ndarray:
    """The first ``count`` ``(3, n)`` factor rows of a seed's draw stream.

    A fresh generator's first ``count * n * 3`` normals are a bitwise
    prefix of any longer draw from the same seed, so these rows are
    exactly the rows the batched paths saw — without re-materializing
    the full ``(S, 3, n)`` factor block.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, sections, 3))
    return np.exp(-0.5 * sig * sig + sig * z).transpose(0, 2, 1)


def _staged_factor_values(
    sections: int,
    sig: np.ndarray,
    nominal: np.ndarray,
    samples: int,
    seed: int,
    stage: int,
) -> np.ndarray:
    """The eager ``(S, 3, n)`` value block, materialized in stages.

    Draws land stage by stage through one generator, so only one
    stage's raw normals and factors are alive on top of the output
    block — the one-shot expression ``exp(...) * nominal`` held three
    full ``(S, 3, n)`` intermediates (``z``, the factors and the
    product) at peak. Generator streams are prefix-stable, so the
    staged block is bitwise identical to the one-shot draw.
    """
    rng = np.random.default_rng(seed)
    values = np.empty((samples, 3, sections))
    for lo in range(0, samples, stage):
        hi = min(lo + stage, samples)
        z = rng.standard_normal((hi - lo, sections, 3))
        values[lo:hi] = (
            np.exp(-0.5 * sig * sig + sig * z).transpose(0, 2, 1) * nominal
        )
    return values


def _tree_from_factors(
    tree: RLCTree, names: Tuple[str, ...], factors: np.ndarray
) -> RLCTree:
    """Rebuild the perturbed :class:`RLCTree` of one ``(3, n)`` factor row."""
    index = {name: i for i, name in enumerate(names)}

    def jitter(name: str, section: Section) -> Section:
        i = index[name]
        return Section(
            section.resistance * factors[0, i],
            section.inductance * factors[1, i],
            section.capacitance * factors[2, i],
        )

    return tree.map_sections(jitter)


@shielded
def sample_delays(
    tree: RLCTree,
    node: str,
    variation: VariationModel,
    samples: int = 500,
    exact_samples: int = 0,
    seed: int = 0,
    *,
    chunk_size: Optional[int] = None,
    eager: bool = False,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> VariationStudy:
    """Monte-Carlo delay distribution at ``node``.

    The study is built as a *lazy sweep* (:mod:`repro.sweep`): the tree
    is flattened once, the log-normal factor draws become a sequential
    scenario axis, and the ``(chunk, 3, n)`` value blocks are staged
    and evaluated chunk by chunk through the execution runtime — each
    chunk routed across the calibrated serial/sharded crossover — so
    peak value-matrix memory is ``O(chunk_size x n)`` rather than
    ``O(samples x n)``. The RNG stream is drawn chunk by chunk from one
    seeded generator whose concatenated blocks are bitwise the single
    eager draw, so every delay sample is bitwise identical for any
    ``chunk_size``, backend and worker count.

    ``eager=True`` is the escape hatch onto the materialized path: the
    full ``(S, 3, n)`` block is built (staged ``chunk_size`` rows at a
    time so the construction itself never holds duplicate full-size
    intermediates) and evaluated as one batch. Same bits, eager memory
    profile.

    ``exact_samples`` of the draws (the first ones, so they share the
    model draws) are additionally simulated exactly — expensive, so keep
    it to tens. ``exact_samples=1`` is rejected: a single exact sample
    has no sample sigma (``ddof=1``) and no rank correlation.
    """
    if samples < 2:
        raise ReproError("need at least 2 samples")
    if exact_samples < 0:
        raise ConfigurationError("exact_samples must be non-negative")
    if exact_samples == 1:
        raise ConfigurationError(
            "exact_samples must be 0 or at least 2: one exact sample has "
            "no sample sigma (ddof=1) and no rank correlation"
        )
    if exact_samples > samples:
        raise ReproError("exact_samples cannot exceed samples")
    if node not in tree:
        raise ReproError(f"unknown node {node!r}")
    chunk = DEFAULT_CHUNK if chunk_size is None else int(chunk_size)
    if chunk < 1:
        raise ConfigurationError(
            f"chunk_size must be positive, got {chunk}"
        )
    runtime = resolve_context(context, config)
    compiled = compile_tree(tree)
    # Draws happen in (sample, section, element) order with the same
    # expression as VariationModel.sample_tree, so the factor rows are
    # bitwise identical to what the per-sample loop would produce.
    sig = np.asarray(variation.log_sigmas())
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    rlc = np.empty(samples)
    rc = np.empty(samples)
    if eager:
        values = _staged_factor_values(
            compiled.size, sig, nominal, samples, seed, stage=chunk
        )
        batch = runtime.batch(compiled, values, metrics=("delay_50", "t_rc"))
        rlc[:] = batch.column("delay_50", node)
        rc[:] = math.log(2.0) * batch.column("t_rc", node)
    else:
        axis = lognormal_factors(
            "variation",
            sigmas=sig,
            sections=compiled.size,
            samples=samples,
            seed=seed,
        )
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=axis.resistance * const(nominal[0]),
            inductance=axis.inductance * const(nominal[1]),
            capacitance=axis.capacitance * const(nominal[2]),
        )
        for lo, batch in iter_sweep(
            sweep,
            compiled,
            chunk_size=chunk,
            metrics=("delay_50", "t_rc"),
            context=runtime,
        ):
            hi = lo + batch.scenarios
            rlc[lo:hi] = batch.column("delay_50", node)
            rc[lo:hi] = math.log(2.0) * batch.column("t_rc", node)
    if not (np.all(np.isfinite(rlc)) and np.all(np.isfinite(rc))):
        # Log-normal factors keep values positive, so this means the
        # nominal tree itself was out of the closed forms' domain.
        raise ElementValueError(
            f"variation samples at node {node!r} fell outside the "
            "closed-form domain; check the nominal element values"
        )
    exact = np.empty(exact_samples)
    if exact_samples:
        prefix = _factor_prefix(sig, compiled.size, exact_samples, seed)
        for index in range(exact_samples):
            perturbed = _tree_from_factors(
                tree, compiled.names, prefix[index]
            )
            simulator = ExactSimulator(perturbed)
            t = simulator.time_grid(points=4001, span_factor=12.0)
            exact[index] = measure_delay_50(
                t, simulator.step_response(node, t)
            )
    return VariationStudy(
        node=node,
        rlc=DelaySamples(values=rlc),
        rc=DelaySamples(values=rc),
        exact=DelaySamples(values=exact) if exact_samples else None,
    )


@shielded
def linearized_sigma(
    tree: RLCTree,
    node: str,
    variation: VariationModel,
) -> Tuple[float, float]:
    """(nominal delay, first-order delay sigma) from the analytic gradient.

    Treats per-section variations as independent with the given relative
    sigmas: ``var(D) = sum (dD/dx * sigma_x * x)^2``. One O(n) gradient
    replaces the whole Monte Carlo when the variations are small —
    validated against :func:`sample_delays` in the benchmarks.
    """
    report = delay_sensitivities(tree, node)
    variance = 0.0
    for sens in report.sensitivities.values():
        variance += (
            (sens.d_resistance * sens.resistance * variation.sigma_resistance) ** 2
            + (sens.d_inductance * sens.inductance * variation.sigma_inductance) ** 2
            + (sens.d_capacitance * sens.capacitance * variation.sigma_capacitance) ** 2
        )
    return report.value, math.sqrt(variance)
