"""Dense nonnegative tables over finite variables.

One table layout is used everywhere: the variables of a factor are sorted
ascending by the global order of the variable table, and values are stored
flat in row-major order with the last listed variable varying fastest.
For a factor over ``(X, Y)`` with two states each that means::

    index   X    Y    value
    0       x0   y0   values[0]
    1       x0   y1   values[1]
    2       x1   y0   values[2]
    3       x1   y1   values[3]

Kernels (conditional tables for one child variable) use the analogous
layout with the parent assignment major and the child state fastest; the
child need not follow its parents in the global order, so converting a
kernel to a factor may transpose.

Values are IEEE double precision.  Tables are immutable after construction
and all operations are pure, so values can be shared across threads.
The public constructors copy and check their values (:func:`_as_table`).
The package's own code has one private way around that, :func:`_adopt`:
it wraps a fresh float64 C-contiguous array that only the caller holds and
has proven finite and nonnegative, without a copy or a scan, and still
marks it read-only.
The one table cap, :data:`MAX_TABLE_ENTRIES`, and its one check,
:func:`_check_entries`, live here: every dense table is checked before it is built.
So do the range rule's error, :class:`OutOfRangeError`, and its two checks,
:func:`_in_range` for a result and :func:`_kept` for a kept table.
A :class:`VariableTable` builds its names tuple, index and cardinalities
once, at construction, outside its dataclass fields, so ``==``, ``hash``
and ``repr`` ignore them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class VariableTable:
    """Ordered declaration of finite variables and their state labels.

    The listing order defines the global variable order used by every
    factor operation.
    """

    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            tuple((name, tuple(states)) for name, states in self.entries),
        )
        names = tuple(name for name, _ in self.entries)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_card", {n: len(s) for n, s in self.entries})
        for name, states in self.entries:
            if not states:
                raise ValueError(f"variable {name} has no states")
            if len(set(states)) != len(states):
                raise ValueError(f"variable {name} has duplicate state labels")

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name}") from None

    def states(self, name: str) -> tuple[str, ...]:
        return self.entries[self.index(name)][1]

    def card(self, name: str) -> int:
        # An unknown name takes the slow path, which raises its KeyError.
        return self._card[name] if name in self._card else len(self.states(name))

    def shape(self, vars: Iterable[str]) -> tuple[int, ...]:
        return tuple(map(self.card, vars))

    def state_index(self, name: str, label: str) -> int:
        states = self.states(name)
        try:
            return states.index(label)
        except ValueError:
            raise ValueError(f"variable {name} has no state {label!r}") from None


def _as_table(values: object) -> np.ndarray:
    """A read-only, flat, validated copy of ``values``.

    Exactly one contiguous copy is made, also from a broadcast or strided
    view, so a table never aliases its caller's array.  Every public
    construction of a :class:`Factor` or :class:`Kernel` comes here;
    only :func:`_adopt`, for arrays the package built and checked itself,
    skips the copy and the scan.
    """
    arr = np.array(values, dtype=np.float64, order="C").ravel()
    # NaN fails both comparisons.
    if arr.size and not (arr.min() >= 0 and arr.max() < np.inf):
        raise ValueError("table values must be finite and nonnegative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Factor:
    """A nonnegative table over a sorted tuple of variables.

    ``values`` is flat with length equal to the product of the variable
    cardinalities, last variable fastest.  Sortedness and length are
    checked against a :class:`VariableTable` by the operations, since the
    factor itself does not carry one.
    """

    vars: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "values", _as_table(self.values))

    def __reduce__(self):  # through the constructor: unpickled values are read-only
        return Factor, (self.vars, self.values)


@dataclass(frozen=True, eq=False)
class Kernel:
    """A table for one child variable given an ordered list of parents.

    ``values`` is flat, parent assignment major and child state fastest.
    When ``stochastic`` is set, every child column must sum to one (checked
    by validation at tolerance 1e-9, not at construction).
    """

    child: str
    parents: tuple[str, ...]
    values: np.ndarray
    stochastic: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "values", _as_table(self.values))

    def __reduce__(self):
        return Kernel, (self.child, self.parents, self.values, self.stochastic)


def _adopt(cls, values: np.ndarray, **fields):
    """A :class:`Factor` or :class:`Kernel` of type ``cls`` around ``values``
    itself, flattened without a copy and marked read-only, with ``fields``
    (tuples for ``vars`` and ``parents``) set as given.

    For the package's own code only.  ``values`` must be a fresh float64,
    C-contiguous array, not a view, that no one else holds, and the caller
    must have proven every entry finite and nonnegative: nothing is
    copied or scanned here.
    """
    flags = values.flags
    assert values.dtype == np.float64 and flags.c_contiguous
    assert values.base is None and flags.writeable
    table = object.__new__(cls)
    table.__dict__.update(fields)
    flags.writeable = False
    table.__dict__["values"] = values.reshape(-1)
    return table


def check_factor(f: Factor, vt: VariableTable) -> None:
    """Raise if ``f`` is not laid out canonically for ``vt``."""
    idx = [vt.index(v) for v in f.vars]
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(
            f"factor variables {f.vars} are not sorted by the variable table"
        )
    expected = math.prod(vt.shape(f.vars))
    if f.values.size != expected:
        raise ValueError(
            f"factor over {f.vars} has {f.values.size} values, expected "
            f"{expected} for the declared cardinalities"
        )


def _grid(f: Factor, vt: VariableTable) -> np.ndarray:
    """The factor's values reshaped to one axis per variable."""
    return f.values.reshape(vt.shape(f.vars))


class TableTooLargeError(ValueError):
    """A dense table would have more than :data:`MAX_TABLE_ENTRIES` entries."""


# The most entries a dense table may have before anything is multiplied:
# 2**24 doubles are 128 MiB, and a product briefly holds a few such arrays.
MAX_TABLE_ENTRIES = 1 << 24


def _check_entries(
    sizes: Sequence[int], where: str = "", what: str = "a table over {} variables"
) -> None:
    """Refuse a dense table with one axis of each of ``sizes`` when it has
    more than :data:`MAX_TABLE_ENTRIES` entries.  The message starts with
    ``where``, the table's place (a vertex, a document table), and names
    the table by ``what``, formatted with the number of axes."""
    entries = math.prod(sizes)
    if entries > MAX_TABLE_ENTRIES:
        raise TableTooLargeError(
            f"{where}{': ' if where else ''}{what.format(len(sizes))} would have "
            f"{entries:,} entries, more than the cap of {MAX_TABLE_ENTRIES:,}"
        )


class OutOfRangeError(ValueError):
    """A product or sum-product result is nonzero but outside the range of
    a double: its largest entry overflows or falls below the normal range,
    or, in a table the transforms build, a nonzero entry rounds to zero.

    ``log_mass`` is the natural logarithm of its total mass, which is
    finite whatever the range.
    """

    def __init__(self, message: str, log_mass: float):
        self.log_mass = log_mass
        super().__init__(message)


_Table = tuple[tuple[str, ...], np.ndarray]  # sorted variables, flat or shaped values


def _spread(
    vars: tuple[str, ...], values: np.ndarray, onto: tuple[str, ...], vt: VariableTable
) -> np.ndarray:
    """``values`` over ``vars`` reshaped to one axis per variable of ``onto``,
    of size 1 where ``vars`` lacks it; ``vars`` must follow ``onto``'s order."""
    return values.reshape([vt._card[u] if u in vars else 1 for u in onto])


def _compact_product(
    tables: Iterable[_Table], onto: tuple[str, ...], vt: VariableTable, shapes=None
) -> np.ndarray | float:
    """The exact product of ``tables`` with one axis per variable of
    ``onto``, of size 1 where no table mentions it, multiplied left to
    right and so rounded as a chain of :func:`factor_product` calls: a
    fresh array for two or more tables, a view of the values for one,
    and ``1.0`` for none, from each table's first two items, its variables
    and values.  ``shapes``, where given, holds each table's shape on
    ``onto``, as :func:`_spread` finds it.  Every caller has checked
    ``onto`` against the cap."""
    acc = 1.0
    for i, table in enumerate(tables):
        spread = table[1].reshape(shapes[i]) if shapes else _spread(*table[:2], onto, vt)
        # Broadcasting grows ``acc`` to the variables seen so far only.
        acc = acc * spread if i else spread
    return acc


# Every normal double is at least 2**-1022.
_NORMAL = -1022


def _shift(peak: float, low: int, top: int) -> int:
    """The power of two that a table is divided by: the one range rule of
    both engines, for each mass the sweep absorbs and each bucket that
    sum-product rebuilt exactly.  It brings the table's largest entry,
    ``peak``, into the target binade [2**(top-1), 2**top), or takes a
    smaller power where that would push a nonzero entry, each at least
    ``2**low``, below 2**-1022.  The largest entry is never pushed above
    the range, so where no power fits both ends, ``low - shift`` stays
    below -1022 for the caller to see."""
    peak = math.frexp(peak)[1]
    return max(peak - 1024, min(peak - top, low - _NORMAL))


def _wide_product(
    tables: Iterable[tuple], onto: tuple[str, ...], vt: VariableTable
) -> tuple[np.ndarray, np.ndarray]:
    """The product of ``tables`` over ``onto`` as ``(mantissa, exponent)``,
    an exponent per entry and each nonzero mantissa in [1/2, 1), so that
    no partial product overflows or underflows.  A mantissa product lies
    in [1/4, 1), so each entry is rounded as :func:`_compact_product`
    rounds it with an unbounded exponent.  A table's optional third item,
    one exponent or one per value, scales its values."""
    mantissa, exponent = 0.5, 1
    for vars, values, *scale in tables:
        m, e = np.frexp(values)
        if scale:
            e = e + scale[0]
        mantissa, shift = np.frexp(mantissa * _spread(vars, m, onto, vt))
        exponent = exponent + _spread(vars, e, onto, vt) + shift
    return mantissa, exponent


def _wide_sum(
    mantissa: np.ndarray, exponent: np.ndarray | int, axis: int | None = None
) -> tuple[np.ndarray, np.ndarray | int]:
    """The sum of ``mantissa * 2**exponent`` over ``axis`` (every axis for
    ``None``) as ``(total, top)``, worth ``total * 2**top``: each sum is
    taken at the scale of its largest term, which drops only terms below
    2**-1074 of it, and is rounded as the direct sum where all are normal."""
    if not np.ndim(exponent):  # one scale already
        return mantissa.sum(axis), exponent
    mantissa, exponent = np.broadcast_arrays(mantissa, exponent)
    # The initial value lies below every exponent and far from int32 overflow.
    top = np.max(exponent, axis, keepdims=True, where=mantissa > 0, initial=-(1 << 30))
    return np.ldexp(mantissa, exponent - top).sum(axis), np.squeeze(top, axis)


def _log_sum(mantissa: np.ndarray, exponent: np.ndarray | int) -> float:
    """The natural log of the nonzero sum of ``mantissa * 2**exponent``."""
    total, top = _wide_sum(mantissa, exponent)
    return math.log(total) + int(top) * math.log(2.0)


def _in_range(
    vars: tuple[str, ...], table: np.ndarray, exponent: np.ndarray | int
) -> Factor:
    """``table * 2**exponent`` as a factor over ``vars``, or
    :class:`OutOfRangeError` if the table is nonzero and its largest entry
    is not a normal double: it overflows, or falls below 2**-1022."""
    with np.errstate(over="ignore", under="ignore"):
        values = np.ldexp(table, exponent)
    peak = float(values.max())
    if peak == math.inf or (peak < 2.0**_NORMAL and table.max() > 0):
        log_mass = _log_sum(table, exponent)
        raise OutOfRangeError(
            f"the total mass is outside the range of a double: its natural "
            f"log is {log_mass:.17g}",
            log_mass,
        )
    return Factor(vars, values)


def _out_of_range(
    where: str, mantissa: np.ndarray, exponent: np.ndarray
) -> OutOfRangeError:
    """The error for the table at ``where``, ``mantissa * 2**exponent`` from
    :func:`_wide_product`, which leaves the range of a double; its
    ``log_mass`` is the natural log of that table's total mass."""
    log_mass = _log_sum(mantissa, exponent)
    return OutOfRangeError(
        f"table values must be finite and nonnegative: the table at {where} "
        f"is outside the range of a double; the natural log of its total mass "
        f"is {log_mass:.17g}",
        log_mass,
    )


def _flags(underflows: list) -> np.errstate:
    """An ``np.errstate`` that appends the FPU's underflow flag, raised only
    by an inexact tiny result, to ``underflows``, and ignores the other
    errors: each caller tests a maximum, which an overflow or a NaN fails,
    and whether the list grew during a product, so one block spans a pass."""
    return np.errstate(
        all="ignore", under="call", call=lambda kind, flag: underflows.append(kind)
    )


def _kept(
    where: str, tables: list, onto: tuple[str, ...], vt: VariableTable
) -> tuple[np.ndarray | float, bool]:
    """The product of ``tables`` over ``onto`` for an unnormalised table the
    package keeps (a Markov factor, a chordal kernel), and whether it was
    rebuilt: direct unless a multiply raised the underflow flag (:func:`_flags`)
    or the maximum is not finite, else by :func:`_wide_product`, rounded, or
    :func:`_out_of_range`'s error at ``where`` if an entry leaves the range."""
    if len(tables) < 2:
        return _compact_product(tables, onto, vt), False
    underflows: list[str] = []
    with _flags(underflows):
        acc = _compact_product(tables, onto, vt)
        if not underflows and acc.max() < math.inf:
            return acc, False
        mantissa, exponent = _wide_product(tables, onto, vt)
        table = np.ldexp(mantissa, exponent)
    lost = np.count_nonzero(table) < np.count_nonzero(mantissa)
    if lost or not table.max() < math.inf:
        raise _out_of_range(where, mantissa, exponent)
    return table, True


def _product(
    tables: list, onto: tuple[str, ...], vt: VariableTable, where: str | None = None
) -> np.ndarray:
    """The cap check, then :func:`_compact_product` broadcast to the shape
    of ``onto``: a read-only view, all ones for no tables, so the
    :class:`Factor` or :class:`Kernel` built from it makes the only copy.
    A table named by ``where`` is an unnormalised one the package keeps,
    built by :func:`_kept` instead, which reads the FPU's flags itself."""
    _check_entries(vt.shape(onto))
    if where is None:
        return np.broadcast_to(_compact_product(tables, onto, vt), vt.shape(onto))
    return np.broadcast_to(_kept(where, tables, onto, vt)[0], vt.shape(onto))


def factor_product(a: Factor, b: Factor, vt: VariableTable) -> Factor:
    """Pointwise product over the union of the two variable sets.

    Shared variables are identified: the value at a joint assignment is the
    product of the two factors at its restrictions.

    Raises:
        TableTooLargeError: if the product would exceed ``MAX_TABLE_ENTRIES``.
    """
    check_factor(a, vt)
    check_factor(b, vt)
    union = tuple(sorted(set(a.vars) | set(b.vars), key=vt.index))
    return Factor(union, _product([(a.vars, a.values), (b.vars, b.values)], union, vt))


def factor_marginalize(f: Factor, drop: Iterable[str], vt: VariableTable) -> Factor:
    """Sum out the variables in ``drop``; remaining variables keep order."""
    check_factor(f, vt)
    drop = set(drop)
    unknown = drop - set(f.vars)
    if unknown:
        raise ValueError(f"cannot marginalize unknown variables {sorted(unknown)}")
    if not drop:
        return Factor(f.vars, f.values)
    axes = tuple(i for i, v in enumerate(f.vars) if v in drop)
    keep = tuple(v for v in f.vars if v not in drop)
    return Factor(keep, _grid(f, vt).sum(axis=axes).ravel())


def factor_entry(f: Factor, assignment: Mapping[str, str], vt: VariableTable) -> float:
    """The single value of ``f`` at a full assignment of its variables."""
    check_factor(f, vt)
    index = tuple(vt.state_index(v, assignment[v]) for v in f.vars)
    return float(_grid(f, vt)[index])


def enumerate_assignments(
    vt: VariableTable, vars: Iterable[str]
) -> Iterator[tuple[str, ...]]:
    """Assignments of ``vars`` in canonical index order (last fastest)."""
    return iter_product(*(vt.states(v) for v in vars))


def _stochastic_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Split ``table`` along its last axis into stochastic rows and masses.

    Returns ``(rows, mass, least)`` with ``mass`` the sum over the last
    axis, ``rows = table / mass`` where ``mass > 0``, ``1 / card``
    elsewhere, and ``least`` the smallest mass.
    Below 8 states the sums and quotients go column by column, which numpy
    runs several times faster than a reduction along a short last axis
    and which adds in the same order as ``sum(axis=-1)``; from 8 states on
    numpy sums pairwise, so that path is kept.  The results are validated
    where they become tables, so each caller holds an ``np.errstate`` in
    which overflow and 0/0 do not warn.
    """
    card = table.shape[-1]
    if card < 8:
        mass = table[..., 0] + table[..., 1] if card > 1 else table[..., 0].copy()
        for j in range(2, card):
            mass += table[..., j]
        rows = np.empty(table.shape)
        for j in range(card):
            np.divide(table[..., j], mass, out=rows[..., j])
    else:
        mass = table.sum(axis=-1)
        rows = table / mass[..., None]
    least = mass.min()
    if not least > 0:  # NaN fails too
        rows[~(mass > 0)] = 1.0 / card
    return rows, mass, least


def normalize_to_kernel(
    f: Factor, child: str, vt: VariableTable
) -> tuple[Kernel, Factor]:
    """Split ``f`` into a stochastic kernel for ``child`` and its mass.

    Returns ``(g, lam)`` where ``lam`` is the marginal of ``f`` over the
    child and ``g(y | x) = f(x, y) / lam(x)`` wherever ``lam(x) > 0``.  A
    zero column is filled uniformly with ``1 / |child|``, which keeps the
    operation total; the reconstruction ``g(y | x) * lam(x) = f(x, y)``
    then holds everywhere.  The child axis is moved last, without a copy,
    and split by the same normaliser as the elimination sweep.
    """
    check_factor(f, vt)
    if child not in f.vars:
        raise ValueError(f"{child} is not a variable of the factor")
    parents = tuple(v for v in f.vars if v != child)
    grid = np.moveaxis(_grid(f, vt), f.vars.index(child), -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows, mass, _ = _stochastic_rows(grid)
    return Kernel(child, parents, rows, stochastic=True), Factor(parents, mass)


def kernel_to_factor(k: Kernel, vt: VariableTable) -> Factor:
    """Re-index a kernel into the canonical sorted factor layout."""
    joint = tuple(sorted({k.child, *k.parents}, key=vt.index))
    if len(joint) != len(k.parents) + 1:
        raise ValueError(f"kernel for {k.child} repeats a variable")
    grid = k.values.reshape(vt.shape(k.parents) + (vt.card(k.child),))
    grid = np.moveaxis(grid, -1, joint.index(k.child))
    return Factor(joint, grid.ravel())
