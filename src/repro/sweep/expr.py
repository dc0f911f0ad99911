"""Lazy scenario expressions: sweep axes and derived per-section values.

A sweep is described, not materialized: axes (:func:`linspace`,
:func:`log_sample`, :func:`values_axis`, :func:`lognormal_factors`)
name the scenario dimensions, and ordinary arithmetic on their
``.values`` (or ``.factors`` for random-draw axes) builds a DAG of
:class:`Expr` nodes for the per-section ``(R, L, C)`` quantities. No
scenario row exists until the executor asks a chunk of the space to
evaluate itself, so an expression over ten million scenarios costs a
few interned nodes, not an ``(S, 3, n)`` block.

Nodes are **hash-consed**: structurally identical expressions intern to
the *same object*, so common subexpressions are shared by construction
and the compiler's CSE pass is a ref-count walk rather than a
tree-match. Intern keys embed child node ids drawn from a monotonic
counter that is never reused, so a key can never alias a structurally
different node after its children are garbage-collected. Scalar
constants intern on their raw IEEE-754 bits (``0.0`` and ``-0.0`` are
distinct nodes); array constants intern on shape plus content digest
and are frozen defensively.

Chunk evaluation is **bitwise-exact** against the eager equivalents:
:func:`linspace` replicates ``np.linspace``'s arithmetic (including the
denormal-step path of numpy gh-5437) so any chunk slice equals the
corresponding slice of the full grid, and :func:`lognormal_factors`
draws chunk-by-chunk from one seeded generator whose concatenated
blocks are bitwise the single full draw.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
import weakref
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Axis",
    "Expr",
    "ScenarioSpace",
    "as_expr",
    "clip",
    "const",
    "cross",
    "exp",
    "linspace",
    "log",
    "log_sample",
    "lognormal_factors",
    "scenario_space",
    "sqrt",
    "values_axis",
    "zip_axes",
]

#: Structural key -> interned node. Values are weak: an expression
#: nothing references anymore is garbage and its key must not pin it.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: Monotonic node ids, never reused — keys embedding child ids stay
#: unambiguous even after those children are collected and re-made.
_UIDS = itertools.count(1)


def _interned(key, build: Callable[[], "_Interned"]):
    node = _INTERN.get(key)
    if node is None:
        node = build()
        node._uid = next(_UIDS)
        _INTERN[key] = node
    return node


class _Interned:
    """Base for hash-consed nodes.

    Equality and hashing stay at object identity *on purpose*: the
    intern table guarantees one live node per structural key, so
    ``a is b`` already means "same structure".
    """

    _uid: int = 0


Operand = Union["Expr", float, int, np.ndarray]


class Expr(_Interned):
    """One node of a lazy scenario-expression DAG.

    ``deps`` are the child expressions; ``_compute(ctx, args)`` maps
    their chunk values (``args``, one per dep) to this node's chunk
    value. Values broadcast numpy-style: scalars, per-section ``(n,)``
    vectors, per-scenario ``(chunk, 1)`` columns and full ``(chunk,
    n)`` blocks all compose.
    """

    deps: Tuple["Expr", ...] = ()
    #: True when evaluation consumes hidden state (RNG draws). Stateful
    #: nodes are memoized even when CSE is disabled so a shared stream
    #: never advances twice within one chunk.
    stateful: bool = False
    #: The sweep axis this node reads, if any (checked at compile time
    #: against the scenario space).
    axis: Optional["Axis"] = None
    #: The per-section length this node's value is tied to, if any
    #: (checked against the tree before a sweep's first chunk).
    sections: Optional[int] = None

    def _compute(self, ctx, args):
        raise NotImplementedError

    def _compute_into(self, ctx, args, out: np.ndarray) -> None:
        """Write this node's chunk value into ``out``, a ``(chunk, n)``
        staging slot, broadcasting as assignment does."""
        out[...] = self._compute(ctx, args)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: Operand) -> "Expr":
        return _binop("add", self, other)

    def __radd__(self, other: Operand) -> "Expr":
        return _binop("add", other, self)

    def __sub__(self, other: Operand) -> "Expr":
        return _binop("sub", self, other)

    def __rsub__(self, other: Operand) -> "Expr":
        return _binop("sub", other, self)

    def __mul__(self, other: Operand) -> "Expr":
        return _binop("mul", self, other)

    def __rmul__(self, other: Operand) -> "Expr":
        return _binop("mul", other, self)

    def __truediv__(self, other: Operand) -> "Expr":
        return _binop("div", self, other)

    def __rtruediv__(self, other: Operand) -> "Expr":
        return _binop("div", other, self)

    def __neg__(self) -> "Expr":
        return _unary("neg", self)


_BIN_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}

_UNARY_UFUNCS = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

#: Unary ops IEEE-754 rounds exactly, as it does all four binary ones,
#: so their result bits cannot depend on how an ``out=`` slot's strides
#: steer numpy's loop selection. ``exp``/``log`` are absent on purpose:
#: their SIMD and scalar loops may differ in the last ulp, and which one
#: runs depends on strides.
_EXACT_UNARY = frozenset(("neg", "sqrt"))


def _write(ufunc, args, out: np.ndarray) -> None:
    """``ufunc(*args)`` written straight into a staging slot.

    The slots are node-major underneath (see
    :func:`repro.engine.table.iter_analyze_batch`), so Fortran-order
    iteration streams the writes through contiguous memory; numpy's
    default order would follow the scenario-major inputs and scatter
    every write by a whole chunk's stride.
    """
    ufunc(*args, out=out, order="F")


class _BinOp(Expr):
    def __init__(self, label: str, left: Expr, right: Expr):
        self.label = label
        self.deps = (left, right)

    def __repr__(self):
        return f"<{self.label} #{self._uid}>"

    def _compute(self, ctx, args):
        return _BIN_UFUNCS[self.label](args[0], args[1])

    def _compute_into(self, ctx, args, out):
        _write(_BIN_UFUNCS[self.label], args, out)


class _Unary(Expr):
    def __init__(self, label: str, child: Expr):
        self.label = label
        self.deps = (child,)

    def __repr__(self):
        return f"<{self.label} #{self._uid}>"

    def _compute(self, ctx, args):
        return _UNARY_UFUNCS[self.label](args[0])

    def _compute_into(self, ctx, args, out):
        if self.label in _EXACT_UNARY:
            _write(_UNARY_UFUNCS[self.label], args, out)
        else:
            out[...] = self._compute(ctx, args)


class _Clip(Expr):
    def __init__(self, child: Expr, lower: float, upper: float):
        self.deps = (child,)
        self.lower = lower
        self.upper = upper

    def __repr__(self):
        return f"<clip[{self.lower}, {self.upper}] #{self._uid}>"

    def _compute(self, ctx, args):
        return np.clip(args[0], self.lower, self.upper)

    def _compute_into(self, ctx, args, out):
        _write(np.clip, (args[0], self.lower, self.upper), out)


class _Const(Expr):
    def __init__(self, value):
        self.value = value
        width = np.shape(value)[-1:]
        if width and width[0] != 1:
            self.sections = width[0]

    def __repr__(self):
        return f"<const #{self._uid}>"

    def _compute(self, ctx, args):
        return self.value


def _binop(label: str, left: Operand, right: Operand) -> Expr:
    left = as_expr(left)
    right = as_expr(right)
    key = ("bin", label, left._uid, right._uid)
    return _interned(key, lambda: _BinOp(label, left, right))


def _unary(label: str, value: Operand) -> Expr:
    child = as_expr(value)
    key = ("un", label, child._uid)
    return _interned(key, lambda: _Unary(label, child))


def const(value) -> Expr:
    """A scenario-invariant constant: scalar or per-section array.

    Interning is by content. Scalars key on their raw IEEE-754 bits, so
    ``0.0`` and ``-0.0`` are distinct nodes (they behave differently
    under division). Arrays key on shape plus a content digest and are
    copied and frozen, so later mutation of the caller's array cannot
    change — or silently *fail* to change — an interned node.
    """
    if isinstance(value, Expr):
        return value
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        scalar = float(arr)
        key = ("const", struct.pack("<d", scalar))
        return _interned(key, lambda: _Const(scalar))
    frozen = arr.copy()
    frozen.setflags(write=False)
    digest = hashlib.sha1(frozen.tobytes()).digest()
    key = ("const", frozen.shape, digest)
    return _interned(key, lambda: _Const(frozen))


def as_expr(value: Operand) -> Expr:
    """Coerce a scalar/array operand to an expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, Axis):
        raise ConfigurationError(
            f"axis {value.name!r} is not an expression; read .values "
            "(or .factors for factor axes)"
        )
    return const(value)


def clip(value: Operand, lower: float, upper: float) -> Expr:
    """Elementwise ``np.clip(value, lower, upper)``."""
    child = as_expr(value)
    lower = float(lower)
    upper = float(upper)
    key = ("clip", child._uid, struct.pack("<dd", lower, upper))
    return _interned(key, lambda: _Clip(child, lower, upper))


def exp(value: Operand) -> Expr:
    """Elementwise ``np.exp``."""
    return _unary("exp", value)


def log(value: Operand) -> Expr:
    """Elementwise ``np.log``."""
    return _unary("log", value)


def sqrt(value: Operand) -> Expr:
    """Elementwise ``np.sqrt``."""
    return _unary("sqrt", value)


# -- axes --------------------------------------------------------------------


class Axis(_Interned):
    """One sweep dimension: a named, sized sequence of scenario values."""

    name: str = ""
    size: int = 0
    #: True when chunks must be evaluated in offset order (the axis
    #: streams from hidden state, e.g. an RNG, with no random access).
    sequential: bool = False

    def take(self, indices: np.ndarray) -> np.ndarray:
        """The axis values at ``indices`` (vectorized, chunk-exact)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} size={self.size}>"

    @property
    def values(self) -> Expr:
        """This axis's per-scenario values as an expression.

        Evaluates to a ``(chunk, 1)`` column so arithmetic against
        per-section ``(n,)`` vectors broadcasts to ``(chunk, n)``.
        """
        return _interned(("axis-values", self._uid), lambda: _AxisValues(self))


class _AxisValues(Expr):
    def __init__(self, axis: Axis):
        self.axis = axis

    def __repr__(self):
        return f"<values[{self.axis.name}] #{self._uid}>"

    def _compute(self, ctx, args):
        return ctx.axis_column(self.axis)


def _grid_take(indices, start, stop, points):
    """``np.linspace(start, stop, points)[indices]`` without the grid.

    Replicates np.linspace's arithmetic step for step — including the
    degenerate ``step == 0`` branch (numpy gh-5437), where numpy
    divides indices by ``div`` *before* multiplying by the denormal
    ``delta`` — so chunk slices are bitwise equal to slices of the
    materialized grid.
    """
    if points == 1:
        return np.full(indices.shape, start, dtype=float)
    div = points - 1
    delta = stop - start
    step = delta / div
    out = indices.astype(float)
    if step == 0:
        out /= div
        out = out * delta
    else:
        out = out * step
    out += start
    out[indices == div] = stop
    return out


class _LinspaceAxis(Axis):
    def __init__(self, name: str, start: float, stop: float, points: int):
        self.name = name
        self.start = start
        self.stop = stop
        self.points = points
        self.size = points

    def take(self, indices):
        return _grid_take(indices, self.start, self.stop, self.points)


class _LogSampleAxis(Axis):
    def __init__(self, name: str, start: float, stop: float, points: int):
        self.name = name
        self.start = start
        self.stop = stop
        self.points = points
        self.size = points
        self._log_start = math.log(start)
        self._log_stop = math.log(stop)

    def take(self, indices):
        if self.points == 1:
            return np.full(indices.shape, self.start, dtype=float)
        out = np.exp(
            _grid_take(indices, self._log_start, self._log_stop, self.points)
        )
        # Exact endpoints: exp(log(x)) can be off by an ulp.
        out[indices == 0] = self.start
        out[indices == self.points - 1] = self.stop
        return out


class _ValuesAxis(Axis):
    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self._values = values
        self.size = int(values.size)

    def take(self, indices):
        return self._values[indices]


def linspace(name: str, start: float, stop: float, points: int) -> Axis:
    """An evenly spaced axis; any chunk slice is bitwise equal to the
    same slice of ``np.linspace(start, stop, points)``."""
    start = float(start)
    stop = float(stop)
    points = int(points)
    if points < 1:
        raise ConfigurationError("a linspace axis needs at least 1 point")
    key = ("linspace", name, struct.pack("<dd", start, stop), points)
    return _interned(key, lambda: _LinspaceAxis(name, start, stop, points))


def log_sample(name: str, start: float, stop: float, points: int) -> Axis:
    """A logarithmically spaced axis from ``start`` to ``stop``
    (endpoints exact, interior points ``exp``-mapped from an even grid
    in log space)."""
    start = float(start)
    stop = float(stop)
    points = int(points)
    if points < 1:
        raise ConfigurationError("a log_sample axis needs at least 1 point")
    if start <= 0.0 or stop <= 0.0:
        raise ConfigurationError(
            "log_sample needs positive start/stop, got "
            f"[{start}, {stop}]"
        )
    key = ("log-sample", name, struct.pack("<dd", start, stop), points)
    return _interned(key, lambda: _LogSampleAxis(name, start, stop, points))


def values_axis(name: str, values) -> Axis:
    """An axis over explicitly listed values (interned by content)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(
            "a values axis needs a non-empty 1-D value list, got shape "
            f"{arr.shape}"
        )
    frozen = arr.copy()
    frozen.setflags(write=False)
    digest = hashlib.sha1(frozen.tobytes()).digest()
    key = ("values", name, frozen.size, digest)
    return _interned(key, lambda: _ValuesAxis(name, frozen))


class _LogNormalFactors(Axis):
    """Mean-preserving log-normal ``(3, n)`` factor draws per scenario.

    The draw stream replicates the eager Monte-Carlo arithmetic of
    :func:`repro.apps.sample_delays` exactly: one
    ``default_rng(seed)``, normals drawn in ``(count, sections, 3)``
    layout, shifted by ``-sigma^2/2`` and transposed to ``(count, 3,
    sections)``. Generator streams are prefix-stable, so chunked draws
    concatenate bitwise to the single full draw.
    """

    sequential = True

    def __init__(self, name, sigmas, sections, samples, seed):
        self.name = name
        self.sigmas = sigmas
        self.sections = sections
        self.size = samples
        self.seed = seed
        # sigma and the -sigma^2/2 shift tiled along one flattened
        # (sections x 3) draw row, so the transform runs as two long
        # contiguous passes instead of broadcasting over a length-3
        # inner axis.
        self._scale = np.tile(sigmas, sections)
        self._shift = np.tile(-0.5 * sigmas * sigmas, sections)

    def take(self, indices):
        raise ConfigurationError(
            f"factor axis {self.name!r} has no scalar values; read "
            ".factors / .resistance / .inductance / .capacitance"
        )

    def start_stream(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # exp(-sigma^2/2 + sigma * z), transformed in place. Bitwise the
        # out-of-place expression: IEEE multiply and add are
        # commutative, so z * sigma + shift rounds exactly like
        # shift + sigma * z, and exp runs over the same contiguous
        # block either way.
        z = rng.standard_normal((count, self.sections, 3))
        rows = z.reshape(count, -1)
        rows *= self._scale
        rows += self._shift
        np.exp(z, out=z)
        return z.transpose(0, 2, 1)

    @property
    def factors(self) -> Expr:
        """The ``(chunk, 3, n)`` factor block as an expression."""
        return _interned(("factors", self._uid), lambda: _FactorBlock(self))

    @property
    def resistance(self) -> Expr:
        """The ``(chunk, n)`` resistance-factor rows."""
        return self._row(0)

    @property
    def inductance(self) -> Expr:
        """The ``(chunk, n)`` inductance-factor rows."""
        return self._row(1)

    @property
    def capacitance(self) -> Expr:
        """The ``(chunk, n)`` capacitance-factor rows."""
        return self._row(2)

    def _row(self, row: int) -> Expr:
        block = self.factors
        return _interned(
            ("elem", block._uid, row), lambda: _ElementRow(block, row)
        )


class _FactorBlock(Expr):
    stateful = True

    def __init__(self, axis: _LogNormalFactors):
        self.axis = axis
        self.sections = axis.sections

    def __repr__(self):
        return f"<factors[{self.axis.name}] #{self._uid}>"

    def _compute(self, ctx, args):
        return ctx.draw_block(self.axis)


class _ElementRow(Expr):
    def __init__(self, block: _FactorBlock, row: int):
        self.deps = (block,)
        self.row = row

    def __repr__(self):
        return f"<elem[{self.row}] #{self._uid}>"

    def _compute(self, ctx, args):
        return args[0][:, self.row, :]


def lognormal_factors(
    name: str,
    *,
    sigmas,
    sections: int,
    samples: int,
    seed: int,
) -> Axis:
    """A sequential Monte-Carlo axis of log-normal element factors.

    ``sigmas`` are the three per-element log-domain sigmas (the
    :meth:`~repro.apps.VariationModel.log_sigmas` triple). The axis is
    *sequential*: chunks must be evaluated in offset order because the
    generator stream has no random access, so it cannot appear in a
    :func:`cross` product.
    """
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (3,):
        raise ConfigurationError(
            f"lognormal_factors needs exactly 3 sigmas, got shape {sig.shape}"
        )
    sections = int(sections)
    samples = int(samples)
    if sections < 1 or samples < 1:
        raise ConfigurationError(
            "lognormal_factors needs positive sections and samples"
        )
    frozen = sig.copy()
    frozen.setflags(write=False)
    key = ("lognormal", name, frozen.tobytes(), sections, samples, int(seed))
    return _interned(
        key,
        lambda: _LogNormalFactors(name, frozen, sections, samples, int(seed)),
    )


# -- scenario spaces ---------------------------------------------------------


class ScenarioSpace:
    """N axes glued into one scenario enumeration.

    ``zip`` mode pairs equal-length axes elementwise (scenario ``i``
    reads element ``i`` of every axis); ``cross`` mode enumerates the
    cartesian product in row-major order (first axis slowest).
    Sequential axes cannot be crossed — their streams have no random
    access — but a zip over one sequential axis streams fine.
    """

    def __init__(self, axes, mode: str):
        axes = tuple(axes)
        if not axes:
            raise ConfigurationError(
                "a scenario space needs at least one axis"
            )
        for axis in axes:
            if not isinstance(axis, Axis):
                raise ConfigurationError(
                    f"scenario spaces take Axis objects, got {axis!r}"
                )
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"axis names must be unique, got {names}"
            )
        if mode not in ("zip", "cross"):
            raise ConfigurationError(f"unknown scenario mode {mode!r}")
        if mode == "zip":
            sizes = {axis.size for axis in axes}
            if len(sizes) != 1:
                raise ConfigurationError(
                    "zip_axes needs equal-length axes, got sizes "
                    f"{[axis.size for axis in axes]}"
                )
            size = sizes.pop()
        else:
            sequential = [a.name for a in axes if a.sequential]
            if sequential:
                raise ConfigurationError(
                    f"sequential axes {sequential} cannot be crossed; "
                    "their draw streams have no random access"
                )
            size = 1
            for axis in axes:
                size *= axis.size
        self.axes = axes
        self.mode = mode
        self.size = size

    @property
    def sequential_axes(self) -> Tuple[Axis, ...]:
        return tuple(axis for axis in self.axes if axis.sequential)

    def axis_indices(self, axis: Axis, lo: int, hi: int) -> np.ndarray:
        """Per-axis element indices of flat scenarios ``[lo, hi)``."""
        if axis not in self.axes:
            raise ConfigurationError(
                f"axis {axis.name!r} is not part of this scenario space"
            )
        flat = np.arange(lo, hi)
        if self.mode == "zip":
            return flat
        stride = 1
        for later in self.axes[self.axes.index(axis) + 1:]:
            stride *= later.size
        return (flat // stride) % axis.size

    def axis_chunk(self, axis: Axis, lo: int, hi: int) -> np.ndarray:
        """The values ``axis`` contributes to scenarios ``[lo, hi)``."""
        return axis.take(self.axis_indices(axis, lo, hi))


def zip_axes(*axes: Axis) -> ScenarioSpace:
    """Pair equal-length axes elementwise into one scenario space."""
    return ScenarioSpace(axes, "zip")


def cross(*axes: Axis) -> ScenarioSpace:
    """The cartesian product of axes, row-major (first axis slowest)."""
    return ScenarioSpace(axes, "cross")


def scenario_space(*axes: Axis) -> ScenarioSpace:
    """:func:`zip_axes` under a name that reads better for one axis."""
    return ScenarioSpace(axes, "zip")
