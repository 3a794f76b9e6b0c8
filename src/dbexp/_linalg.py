"""Shared linear-algebra helpers: pseudo-inverses, PSD certification, and the
connected components that split a symmetric matrix into diagonal blocks."""

import math
from collections.abc import Sequence

import numpy as np

from ._group import GroupOperator

# Singular values below PINV_RCOND * sigma_max are treated as zero everywhere a
# generalized inverse is taken.  Conjugate estimates are invariant to the choice
# of generalized inverse, so the cutoff only affects reported coefficients.
PINV_RCOND = 1e-12


def _svd(a: np.ndarray):
    """Thin SVD of ``a``, or of each matrix of a stack.  A non-finite matrix
    raises ``LinAlgError`` before LAPACK sees it: LAPACK's SVD raises on a NaN
    but can loop forever on an infinite entry."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("SVD of a matrix with a non-finite entry")
    return np.linalg.svd(a, full_matrices=False)


def _svd_cut(a: np.ndarray, scale: float | None):
    """SVD of ``a``, or of each matrix of a stack ``(..., l, l)``, with the mask
    of singular values above the package cutoff (per matrix)."""
    u, s, vt = _svd(np.asarray(a, dtype=float))
    top = s.max(axis=-1, keepdims=True, initial=0.0)
    return u, s, vt, s > PINV_RCOND * np.maximum(top, scale or 0.0)


def _pinv_flagged(a: np.ndarray, scale: float | None) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of ``a`` and whether it was rank deficient at the cutoff."""
    u, s, vt, keep = _svd_cut(a, scale)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T, bool((~keep).any())


def pinv(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package-wide singular value cutoff.

    ``scale`` anchors the cutoff when the matrix is a product that can be zero
    in exact arithmetic although its factors are not (``X'MX`` over directions
    a covariance structure ``M`` annihilates, see :func:`normal_system`):
    singular values below ``PINV_RCOND * scale`` are float residue, not
    signal, and are dropped rather than inverted.
    """
    return _pinv_flagged(a, scale)[0]


# A matrix whose Frobenius bound ``||A||_F ||A^-1||_F``, which caps its 2-norm
# condition number, is at most CERTIFIED_COND is solved by its inverse: the bound
# is a hundredfold inside 1 / PINV_RCOND, so the SVD would keep every singular
# value of it, and the inverse's own rounding (relative cond * eps) cannot carry
# a matrix across the cutoff.
CERTIFIED_COND = 1e-2 / PINV_RCOND


def _squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of (r, k), one row reduction each: the squared
    Frobenius norm of each of r matrices, or of its blocks together."""
    return (a * a).sum(axis=-1)


def _inverses(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (r, s, s) and where each was formed.  A stack whose
    ``inv`` raises (an exactly singular matrix) is inverted one matrix at a
    time, and a matrix that raises alone gets zeros, so each inverse and flag
    depends on its matrix alone."""
    try:
        return np.linalg.inv(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(a), np.zeros(1, dtype=bool)
        parts = [_inverses(a[k : k + 1]) for k in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*parts))


def _diagonal(a: np.ndarray, blocks: Sequence[np.ndarray]):
    """For each size class ``(c, s)`` of ``blocks``, its slots and the diagonal
    blocks of a stack (r, l, l) as one C-contiguous stack (r * c, s, s), matrix
    by matrix (LAPACK and BLAS can round a strided stack unlike a contiguous one)."""
    l = a.shape[-1]
    flat = a.reshape(len(a), l * l)
    for slots in blocks:
        s = slots.shape[1]
        yield slots, flat.take(slots[:, :, None] * l + slots[:, None, :], axis=1).reshape(-1, s, s)


def _per_block(b: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The entries of right-hand sides (r, l) at each of c blocks' slots (c, s): (r * c, s)."""
    return b.take(slots, axis=1).reshape(-1, slots.shape[1])


def _svd_solve(a: np.ndarray, b: np.ndarray, blocks: Sequence[np.ndarray] | None = None):
    """Minimum-norm solutions of a stack (r, l, l), block-diagonal over
    ``blocks`` (one block by default), against (r, l), and their flags: each
    block is decomposed alone and cut at ``PINV_RCOND`` times the largest
    singular value over all blocks of its matrix."""
    r, l = b.shape
    svds = [(slots, _svd(part))
            for slots, part in _diagonal(a, [np.arange(l)[None]] if blocks is None else blocks)]
    top = np.zeros(r)
    for slots, (_, s, _) in svds:
        top = np.maximum(top, s.reshape(r, -1).max(axis=1, initial=0.0))
    x, deficient = np.zeros((r, l)), np.zeros(r, dtype=bool)
    for slots, (u, s, vt) in svds:
        keep = s > PINV_RCOND * np.repeat(top, len(slots))[:, None]
        ub = (_per_block(b, slots)[:, None, :] @ u)[..., 0, :]
        fit = (np.divide(ub, s, out=np.zeros_like(s), where=keep)[..., None, :] @ vt)[..., 0, :]
        x[:, slots] = fit.reshape((r,) + slots.shape)
        deficient |= ~keep.reshape(r, -1).all(axis=1)
    return x, deficient


def pinv_solve(a: np.ndarray, b: np.ndarray, blocks: Sequence[np.ndarray] | None = None):
    """Minimum-norm least-squares solution of ``a @ x = b``.

    ``a`` is one ``(l, l)`` matrix with ``b`` of shape ``(l,)``, or a stack
    ``(..., l, l)`` with right-hand sides ``(..., l)``; a single matrix is a
    stack of one.  ``blocks`` are column blocks over which every matrix is
    block-diagonal, exact zeros elsewhere, grouped by size as
    :func:`component_blocks` returns them; the default is one block, the
    whole matrix.  Each size class of blocks is inverted at once as one
    stack, and a matrix whose Frobenius bound ``||A||_F ||A^-1||_F`` is at most
    ``CERTIFIED_COND`` is certified and gets ``A^-1 b``, its bound taken from
    its blocks (``||A||_F^2`` and ``||A^-1||_F^2`` are sums over them): the
    bound caps the condition number, so the SVD would keep all its singular
    values and this is the minimum-norm solution, to a relative
    ``l * cond * eps``.  Every other matrix, one with an exactly singular
    block included, gets an SVD of each block, cut at ``PINV_RCOND`` times
    the largest singular value over all its blocks, with no anchor: the
    solver serves normal matrices ``X'diag(w)X`` with ``w >= 0``, sums of PSD
    rank-one terms whose largest singular value is their own scale, so they
    cannot cancel to float residue.  A block that makes its stack's ``inv``
    raise is inverted alone, so a matrix's route and bits depend on it alone,
    not on its stack.  A stack that holds a non-finite block raises
    ``LinAlgError`` instead of taking its SVD.

    Returns the solutions, the rank-deficiency flags and the certified flags
    (bools for one matrix, bool arrays for a stack).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape, l = a.shape[:-2], a.shape[-1]
    r = math.prod(shape)
    a, b = a.reshape((r, l, l)), b.reshape((r, l))
    blocks = [np.arange(l)[None]] if blocks is None else blocks
    x, inverted = np.empty((r, l)), np.ones(r, dtype=bool)
    squares, inverse_squares = np.zeros(r), np.zeros(r)  # summed over the blocks
    with np.errstate(over="ignore", invalid="ignore"):  # rows the SVD replaces
        for slots, part in _diagonal(a, blocks):
            inv, ok = _inverses(part)
            if not ok.all():
                inverted &= ok.reshape(r, -1).all(axis=1)
            squares += _squares(part.reshape(r, -1))
            inverse_squares += _squares(inv.reshape(r, -1))
            x[:, slots] = (inv @ _per_block(b, slots)[..., None]).reshape((r,) + slots.shape)
        bound = np.sqrt(squares) * np.sqrt(inverse_squares)
    certified = inverted & (bound <= CERTIFIED_COND)  # False at a non-finite bound
    deficient = np.zeros(r, dtype=bool)
    if not certified.any():  # a stack the SVD solves whole is not copied
        x, deficient = _svd_solve(a, b, blocks)
    elif not certified.all():
        rest = np.flatnonzero(~certified)
        x[rest], deficient[rest] = _svd_solve(a[rest], b[rest], blocks)
    if not shape:
        return x[0], bool(deficient[0]), bool(certified[0])
    return x.reshape(shape + (l,)), deficient.reshape(shape), certified.reshape(shape)


def normal_system(
    x: np.ndarray, core: np.ndarray | GroupOperator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The system ``(X'MX) b = X'M v`` for a layout ``X`` and a square core ``M``,
    a dense array or a :class:`GroupOperator`.

    Returns ``X'M``, ``X'MX``, the pseudo-inverse of ``X'MX`` and its
    rank-deficiency flag.  The cutoff is anchored at ``||X||^2 ||M||``, the
    pre-cancellation magnitude: the normal matrix can be exactly zero in exact
    arithmetic when ``M`` annihilates the layout's columns.
    """
    if isinstance(core, GroupOperator):
        xm, norm = core.matvec(x).T, core.frobenius()  # M is symmetric
    else:
        xm, norm = x.T @ core, float(np.linalg.norm(core))
    normal = xm @ x
    anchor = float(np.linalg.norm(x)) ** 2 * norm
    ginv, deficient = _pinv_flagged(normal, anchor)
    return xm, normal, ginv, deficient


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The symmetric part of ``a``, or of each matrix of a stack ``(..., k, k)``."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix (or of each matrix of a stack), ascending."""
    return np.linalg.eigvalsh(symmetrize(np.asarray(a, dtype=float)))


def min_max_eig(a: np.ndarray) -> tuple[float, float]:
    vals = sym_eigvals(a)
    if vals.size == 0:
        return 0.0, 0.0
    return float(vals[0]), float(vals[-1])


def psd_project(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix (or each matrix of a stack) onto the PSD cone by
    clipping eigenvalues."""
    vals, vecs = np.linalg.eigh(symmetrize(a))
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def components(pattern: np.ndarray) -> np.ndarray:
    """Connected-component label of each slot of a symmetric boolean pattern.

    Slots ``i`` and ``j`` share a component when a chain of True entries links
    them; a slot with no True entry off the diagonal is a component of its own.
    Labels run from 0 in the order of each component's first slot.  A matrix
    that is zero outside a pattern is block-diagonal over its components.
    """
    rows, cols = np.nonzero(pattern)
    parent = np.arange(np.shape(pattern)[0])
    while True:
        # Every slot points at the smallest slot of its tree (its root); an
        # entry joining two trees hooks the larger root under the smaller one.
        a, b = parent[rows], parent[cols]
        if np.array_equal(a, b):
            return np.unique(parent, return_inverse=True)[1]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]


def component_blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """The slots of the connected components of a symmetric boolean pattern,
    grouped by size: one ``(c, s)`` array of ascending slot rows for the ``c``
    components of each size ``s``, in the order of their first components."""
    labels = components(pattern)
    order = np.argsort(labels, kind="stable")
    by_size: dict[int, list[np.ndarray]] = {}
    for slots in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        by_size.setdefault(slots.size, []).append(slots)
    return [np.array(group) for group in by_size.values()]


def block_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix, ascending, decomposed block by block.

    The blocks are the connected components of the nonzero pattern, and the
    spectrum of a block-diagonal matrix is the union of its blocks' spectra,
    so this is the full spectrum; components of one size are decomposed as
    one stack.  A matrix with no zero pattern is the one-block case.
    """
    a = symmetrize(np.asarray(a, dtype=float))
    spectra = [
        np.linalg.eigvalsh(a[slots[:, :, None], slots[:, None, :]]).ravel()
        for slots in component_blocks(a != 0.0)
    ]
    return np.sort(np.concatenate(spectra))
