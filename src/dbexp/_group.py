"""Group-structured 2n x 2n matrices: the kind form of analytic designs.

For complete, Bernoulli and cluster randomization, every matrix the package
derives from the design -- the joint probabilities, the covariance structure,
the identification mask, the AS and cluster bounds and the bounds weighted by
the reciprocal joint -- depends on a pair of stacked slots only through the
two arms and the kind of the unit pair: the same unit, two units of one group,
or units of different groups.  :class:`GroupOperator` stores one 2 x 2 arm
kernel per kind (per unit for the same-unit kind) and works in O(n l^2) where
the dense matrix costs O(n^2 l).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class GroupOperator:
    """A symmetric 2n x 2n matrix over stacked slots (control slots first).

    Entry (a i, b j) is ``unit[a, b, i]`` when i = j, ``same[a, b]`` when
    i != j lie in one group and ``diff[a, b]`` when they lie in different
    groups.  ``index`` maps each unit to its group, labelled 0 .. m - 1 with
    every label used.  The kernels are symmetric in (a, b).
    """

    index: np.ndarray  # (n,)
    unit: np.ndarray  # (2, 2, n)
    same: np.ndarray  # (2, 2)
    diff: np.ndarray  # (2, 2)

    @property
    def n(self) -> int:
        return self.index.shape[0]

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.index)

    @property
    def m(self) -> int:
        return self.sizes.shape[0]

    @cached_property
    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        return np.argsort(self.index, kind="stable"), np.cumsum(self.sizes) - self.sizes

    def kindwise(self, fn, *others: "GroupOperator") -> "GroupOperator":
        """The operator whose kernels are ``fn`` of this one's and ``others``' kernels."""
        ops = (self, *others)
        kernels = [fn(*(getattr(op, kind) for op in ops)) for kind in ("unit", "same", "diff")]
        return GroupOperator(self.index, *kernels)

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
        plus ``diff[a, b]`` times the sum of v over arm b.
        """
        v = np.asarray(v, dtype=float)
        x = v.reshape(2, self.n, -1)
        order, starts = self._order
        sums = np.add.reduceat(x[:, order], starts, axis=1)  # (2, m, k)
        own = sums[:, self.index]  # each unit's group sum
        total = sums.sum(axis=1)
        out = (
            np.einsum("abi,bik->aik", self.unit - self.same[:, :, None], x)
            + np.einsum("ab,bik->aik", self.same - self.diff, own)
            + np.einsum("ab,bk->ak", self.diff, total)[:, None, :]
        )
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
        same_pairs = int((self.sizes.astype(np.int64) ** 2).sum()) - n
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
            and same_partition(self.index, other.index)
            and np.array_equal(self.unit, other.unit)
            and (self.m == self.n or np.array_equal(self.same, other.same))
            and np.array_equal(self.diff, other.diff)
        )


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two unit -> group labellings of one length group the units alike."""
    if a.shape != b.shape:
        return False
    joint = np.unique(np.stack([a, b]), axis=1).shape[1]
    return joint == np.unique(a).shape[0] == np.unique(b).shape[0]


def quadratic(core, v: np.ndarray) -> float:
    """``v' M v`` for a dense matrix or a :class:`GroupOperator`."""
    if isinstance(core, GroupOperator):
        return core.quadratic(v)
    return float(v @ core @ v)

