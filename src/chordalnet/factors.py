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
A :class:`VariableTable` builds its names tuple and index once, at
construction, outside its dataclass fields, so ``==``, ``hash`` and
``repr`` ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping

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
        return len(self.states(name))

    def shape(self, vars: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.card(v) for v in vars)

    def state_index(self, name: str, label: str) -> int:
        states = self.states(name)
        try:
            return states.index(label)
        except ValueError:
            raise ValueError(f"variable {name} has no state {label!r}") from None


def _as_table(values: object) -> np.ndarray:
    """A read-only, flat, validated copy of ``values``.

    Exactly one contiguous copy is made, also from a broadcast or strided
    view, so a table never aliases its caller's array.
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


def check_factor(f: Factor, vt: VariableTable) -> None:
    """Raise if ``f`` is not laid out canonically for ``vt``."""
    idx = [vt.index(v) for v in f.vars]
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(
            f"factor variables {f.vars} are not sorted by the variable table"
        )
    expected = int(np.prod(vt.shape(f.vars), dtype=np.int64)) if f.vars else 1
    if f.values.size != expected:
        raise ValueError(
            f"factor over {f.vars} has {f.values.size} values, expected "
            f"{expected} for the declared cardinalities"
        )


def kernel_violations(k: Kernel, vt: VariableTable, tol: float = 1e-9) -> list[str]:
    """All ways in which ``k`` fails its invariants against ``vt``."""
    out: list[str] = []
    known = vt._index.keys()
    if k.child not in known:
        return [f"kernel child {k.child} is not a declared variable"]
    if not set(k.parents) <= known:
        return [
            f"kernel for {k.child} has undeclared parents "
            f"{sorted(set(k.parents) - known)}"
        ]
    idx = [vt.index(p) for p in k.parents]
    if any(a >= b for a, b in zip(idx, idx[1:])):
        out.append(f"kernel for {k.child} has unsorted parents {k.parents}")
    if k.child in k.parents:
        out.append(f"kernel for {k.child} lists the child as a parent")
    expected = int(np.prod(vt.shape(k.parents + (k.child,)), dtype=np.int64))
    if k.values.size != expected:
        out.append(
            f"kernel for {k.child} has {k.values.size} values, expected {expected}"
        )
        return out
    if k.stochastic:
        cols = k.values.reshape(-1, vt.card(k.child)).sum(axis=1)
        bad = np.abs(cols - 1.0) > tol
        if np.any(bad):
            out.append(
                f"kernel for {k.child} is flagged stochastic but "
                f"{int(bad.sum())} column(s) do not sum to 1 "
                f"(worst deviation {float(np.abs(cols - 1.0).max()):.3g})"
            )
    return out


def _grid(f: Factor, vt: VariableTable) -> np.ndarray:
    """The factor's values reshaped to one axis per variable."""
    return f.values.reshape(vt.shape(f.vars))


def ones_factor(vt: VariableTable, vars: Iterable[str]) -> Factor:
    """The all-ones factor over ``vars`` (the unit of the product)."""
    names = tuple(sorted(set(vars), key=vt.index))
    size = int(np.prod(vt.shape(names), dtype=np.int64)) if names else 1
    return Factor(names, np.ones(size))


def factor_product(a: Factor, b: Factor, vt: VariableTable) -> Factor:
    """Pointwise product over the union of the two variable sets.

    Shared variables are identified: the value at a joint assignment is the
    product of the two factors at its restrictions.
    """
    check_factor(a, vt)
    check_factor(b, vt)
    union = tuple(sorted(set(a.vars) | set(b.vars), key=vt.index))
    av = a.values.reshape([vt.card(v) if v in a.vars else 1 for v in union])
    bv = b.values.reshape([vt.card(v) if v in b.vars else 1 for v in union])
    return Factor(union, (av * bv).ravel())


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


def factor_restrict(
    f: Factor, assignment: Mapping[str, str], vt: VariableTable
) -> Factor:
    """Slice ``f`` at a partial assignment of state labels."""
    check_factor(f, vt)
    unknown = set(assignment) - set(f.vars)
    if unknown:
        raise ValueError(f"cannot restrict on unknown variables {sorted(unknown)}")
    index = tuple(
        vt.state_index(v, assignment[v]) if v in assignment else slice(None)
        for v in f.vars
    )
    keep = tuple(v for v in f.vars if v not in assignment)
    return Factor(keep, _grid(f, vt)[index].ravel())


def factor_entry(f: Factor, assignment: Mapping[str, str], vt: VariableTable) -> float:
    """The single value of ``f`` at a full assignment of its variables."""
    restricted = factor_restrict(f, {v: assignment[v] for v in f.vars}, vt)
    return float(restricted.values[0])


def enumerate_assignments(
    vt: VariableTable, vars: Iterable[str]
) -> Iterator[tuple[str, ...]]:
    """Assignments of ``vars`` in canonical index order (last fastest)."""
    return iter_product(*(vt.states(v) for v in vars))


def _stochastic_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``table`` along its last axis into stochastic rows and masses.

    Returns ``(rows, mass)`` with ``mass`` the sum over the last axis and
    ``rows = table / mass`` where ``mass > 0``, ``1 / card`` elsewhere.
    Below 8 states the sums and quotients go column by column, which numpy
    runs several times faster than a reduction along a short last axis
    and which adds in the same order as ``sum(axis=-1)``; from 8 states on
    numpy sums pairwise, so that path is kept.  Overflow and 0/0 do not
    warn: the results are validated where they become tables.
    """
    card = table.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if card < 8:
            mass = table[..., 0].copy()
            for j in range(1, card):
                mass += table[..., j]
            rows = np.empty(table.shape)
            for j in range(card):
                np.divide(table[..., j], mass, out=rows[..., j])
        else:
            mass = table.sum(axis=-1)
            rows = table / mass[..., None]
    dead = ~(mass > 0)
    if dead.any():
        rows[dead] = 1.0 / card
    return rows, mass


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
    rows, mass = _stochastic_rows(grid)
    return Kernel(child, parents, rows, stochastic=True), Factor(parents, mass)


def kernel_to_factor(k: Kernel, vt: VariableTable) -> Factor:
    """Re-index a kernel into the canonical sorted factor layout."""
    joint = tuple(sorted({k.child, *k.parents}, key=vt.index))
    if len(joint) != len(k.parents) + 1:
        raise ValueError(f"kernel for {k.child} repeats a variable")
    grid = k.values.reshape(vt.shape(k.parents) + (vt.card(k.child),))
    grid = np.moveaxis(grid, -1, joint.index(k.child))
    return Factor(joint, grid.ravel())


def propto_equal(a: Factor, b: Factor, tol: float) -> bool:
    """Whether some positive scale makes the two tables equal within ``tol``.

    The scale is chosen as ``sum(b) / sum(a)``; two identically zero tables
    compare equal, and a zero table never matches a nonzero one.
    """
    if a.vars != b.vars:
        raise ValueError(f"variable mismatch: {a.vars} vs {b.vars}")
    sa, sb = float(a.values.sum()), float(b.values.sum())
    if sa == 0.0 and sb == 0.0:
        return True
    if sa == 0.0 or sb == 0.0:
        return False
    lam = sb / sa
    return bool(np.max(np.abs(lam * a.values - b.values), initial=0.0) <= tol)
