"""Group-structured 2n x 2n matrices: the kind form of analytic designs.

For complete, Bernoulli and cluster randomization, every matrix the package
derives from the design -- the joint probabilities, the covariance structure,
the identification mask, the AS and cluster bounds and the bounds weighted by
the reciprocal joint -- depends on a pair of stacked slots only through the
two arms and the kind of the unit pair: the same unit, two units of one group,
or units of different groups.  :class:`GroupOperator` stores one 2 x 2 arm
kernel per kind (per unit for the same-unit kind) and works in O(n l^2) where
the dense matrix costs O(n^2 l).  :class:`Groups` owns the unit -> cluster
map: ``design._cluster_groups`` makes it from cluster ids and
:meth:`Groups.totals` sums unit rows into cluster rows, for every caller.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class Groups:
    """A unit -> group index, labelled 0 .. m - 1 with every label used, and sums
    of stacked arrays (control slots first) over its 2m (arm, group) columns.
    ``in_order`` says every unit is its own group in unit order; ``key``
    identifies the labelling, for keeping sums computed over it."""

    def __init__(self, index: np.ndarray):
        self.index, self.n, self.key = index, index.shape[0], index.tobytes()
        self.sizes = np.bincount(index)
        self.m = self.sizes.shape[0]
        self.in_order = self.m == self.n and bool((index == np.arange(self.n)).all())
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.first, self.slots = self.starts, None  # slots: stacked slots sorted by group
        if not (np.diff(index) >= 0).all():
            order = np.argsort(index, kind="stable")
            self.first, self.slots = order[self.starts], np.concatenate([order, self.n + order])
        self._bounds = np.concatenate([self.starts, self.n + self.starts])  # of the 2m columns

    def totals(self, v: np.ndarray) -> np.ndarray:
        """Sums of unit rows (n, ...) over the groups (m, ...), each group's rows
        added one at a time in unit order, which rounds unlike :meth:`sum`."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise ValueError("one cluster id per row required")
        out = np.zeros((self.m,) + v.shape[1:])
        np.add.at(out, self.index, v)
        return out

    def sum(self, v: np.ndarray) -> np.ndarray:
        """Sums of a stacked array (2n, ...) over the (arm, group) columns: (2m, ...)."""
        return v if self.in_order else np.add.reduceat(self._sorted(v), self._bounds, axis=0)

    def pair_sums(self, a: np.ndarray, b: np.ndarray, pairs: Sequence[tuple]) -> list[np.ndarray]:
        """For each ``(arm, i, j)`` of ``pairs`` (``CovariateSpec.structure``), the sums
        of the row-wise products ``a[:, i] * b[:, j]`` of stacked arrays (2n, ...)
        over the (arm, group) columns of ``arm`` (m of them), or of both arms
        (2m) for None, with the rows put in group order before the product."""
        a, b = self._sorted(a), self._sorted(b)
        sums = []
        for arm, i, j in pairs:
            rows = arm_slice(arm, self.n)
            products = a[rows].take(i, axis=1) * b[rows].take(j, axis=1)
            bounds = self._bounds if arm is None else self.starts
            sums.append(products if self.in_order else np.add.reduceat(products, bounds, axis=0))
        return sums

    def _sorted(self, v: np.ndarray) -> np.ndarray:
        return v if self.slots is None else v.take(self.slots, axis=0)

    def same_partition(self, other: "Groups") -> bool:
        """Whether ``other`` groups the units alike, whatever its labels: both
        use m labels, and one map from these labels to the other's holds at
        every unit (so it is one to one).  O(n), with no sort."""
        if self is other:
            return True
        if self.n != other.n or self.m != other.m:
            return False
        labels = np.empty(self.m, dtype=other.index.dtype)
        labels[self.index] = other.index
        return bool((labels[self.index] == other.index).all())


def arm_slice(arm: int | None, size: int) -> slice:
    """One arm's half of a stacked axis of 2 * size (control first), or all of it for None."""
    return slice(None) if arm is None else slice(arm * size, (arm + 1) * size)


@lru_cache(maxsize=16)
def unit_groups(n: int) -> Groups:
    """Every unit its own group."""
    return Groups(np.arange(n))


@dataclass(frozen=True, eq=False)
class GroupOperator:
    """A symmetric 2n x 2n matrix over stacked slots (control slots first).

    Entry (a i, b j) is ``unit[a, b, i]`` when i = j, ``same[a, b]`` when
    i != j lie in one group and ``diff[a, b]`` when they lie in different
    groups.  Operators derived from one another share their ``groups``, and
    with it the order that sorts them.  The kernels are symmetric in (a, b).
    """

    groups: Groups
    unit: np.ndarray  # (2, 2, n)
    same: np.ndarray  # (2, 2)
    diff: np.ndarray  # (2, 2)

    @property
    def index(self) -> np.ndarray:
        return self.groups.index

    @property
    def n(self) -> int:
        return self.groups.n

    @property
    def m(self) -> int:
        return self.groups.m

    def kindwise(self, fn, *others: "GroupOperator") -> "GroupOperator":
        """The operator whose kernels are ``fn`` of this one's and ``others``' kernels."""
        ops = (self, *others)
        kernels = [fn(*(getattr(op, kind) for op in ops)) for kind in ("unit", "same", "diff")]
        return GroupOperator(self.groups, *kernels)

    def kinds_where(self, mask: "GroupOperator") -> np.ndarray:
        """This operator's entries where ``mask`` is True, each kind of slot pair that
        occurs counted once: ``values[mask]`` without repeats."""
        parts = [self.unit[mask.unit]]
        if self.m < self.n:  # some group holds two units
            parts.append(self.same[mask.same])
        if self.m > 1:
            parts.append(self.diff[mask.diff])
        return np.concatenate(parts)

    def is_symmetric(self) -> bool:
        return bool(
            np.array_equal(self.unit, self.unit.transpose(1, 0, 2))
            and np.array_equal(self.same, self.same.T)
            and np.array_equal(self.diff, self.diff.T)
        )

    def dense(self) -> np.ndarray:
        """The 2n x 2n matrix, each entry assigned from its kernel."""
        n = self.n
        same = self.index[:, None] == self.index[None, :]
        diagonal = np.arange(n)
        dtype = np.result_type(self.unit, self.same, self.diff)
        out = np.empty((2 * n, 2 * n), dtype=dtype)
        for a in range(2):
            for b in range(2):
                block = out[a * n : (a + 1) * n, b * n : (b + 1) * n]
                block[...] = self.diff[a, b]
                block[same] = self.same[a, b]
                block[diagonal, diagonal] = self.unit[a, b]
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``M @ v`` for a vector (2n,) or the columns of a matrix (2n, k).

        Entry (a i) is the sum over arms b of ``(unit - same)[a, b, i] v[b i]``
        plus ``(same - diff)[a, b]`` times the sum of v over i's group in arm b,
        plus ``diff[a, b]`` times the sum of v over arm b.  With one unit per
        group a unit's group sum is its own entry, so the first two terms are
        ``(unit - diff)[a, b, i] v[b i]`` and no group sum is taken.
        """
        v = np.asarray(v, dtype=float)
        x = v.reshape(2, self.n, -1)
        grouped = self.m < self.n
        own = self.unit - (self.same if grouped else self.diff)[:, :, None]
        out = own[:, 0, :, None] * x[0] + own[:, 1, :, None] * x[1]
        if grouped:
            sums = self.groups.sum(x.reshape(2 * self.n, -1)).reshape(2, -1)
            out += ((self.same - self.diff) @ sums).reshape(2, self.m, -1)[:, self.index]
        out += (self.diff @ x.sum(axis=1))[:, None, :]
        return out.reshape(v.shape)

    def gram(self, x: np.ndarray) -> np.ndarray:
        """``X' M X`` for a layout X (2n, l)."""
        return x.T @ self.matvec(x)

    def quadratic(self, v: np.ndarray) -> float:
        """``v' M v``."""
        v = np.asarray(v, dtype=float)
        return float(self.gram(v[:, None])[0, 0])

    def frobenius(self) -> float:
        """The Frobenius norm, counting the slot pairs of each kind."""
        n = self.n
        same_pairs = int((self.groups.sizes.astype(np.int64) ** 2).sum()) - n
        diff_pairs = n * n - n - same_pairs
        total = (
            float((self.unit**2).sum())
            + same_pairs * float((self.same**2).sum())
            + diff_pairs * float((self.diff**2).sum())
        )
        return float(np.sqrt(total))

    def equals(self, other: "GroupOperator") -> bool:
        """Whether both operators hold the same matrix: one partition, equal kernels."""
        return (
            self.n == other.n
            and self.groups.same_partition(other.groups)
            and np.array_equal(self.unit, other.unit)
            and (self.m == self.n or np.array_equal(self.same, other.same))
            and np.array_equal(self.diff, other.diff)
        )


def quadratic(core, v: np.ndarray) -> float:
    """``v' M v`` for a dense matrix or a :class:`GroupOperator`."""
    if isinstance(core, GroupOperator):
        return core.quadratic(v)
    return float(v @ core @ v)

