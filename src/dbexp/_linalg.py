"""Shared linear-algebra helpers: pseudo-inverses, PSD certification, and the
connected components that split a symmetric matrix into diagonal blocks."""

import math

import numpy as np

from ._group import GroupOperator

# Singular values below PINV_RCOND * sigma_max are treated as zero everywhere a
# generalized inverse is taken.  Conjugate estimates are invariant to the choice
# of generalized inverse, so the cutoff only affects reported coefficients.
PINV_RCOND = 1e-12


def _svd_cut(a: np.ndarray, scale: float | None):
    """SVD of ``a``, or of each matrix of a stack ``(..., l, l)``, with the mask
    of singular values above the package cutoff (per matrix)."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
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


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (r, l, l), one row reduction each."""
    flat = a.reshape(len(a), a.shape[-2] * a.shape[-1])
    return np.sqrt((flat * flat).sum(axis=-1))


def certified_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (r, l, l) and where each is certified, its Frobenius
    bound at most ``CERTIFIED_COND``.  A stack whose ``inv`` raises (an exactly
    singular matrix) is inverted one matrix at a time, and a matrix that raises
    alone is not certified, so each flag depends on its matrix alone."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(a), np.zeros(1, dtype=bool)
        parts = [certified_inverse(a[k : k + 1]) for k in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*parts))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _frobenius(a) * _frobenius(inv)
    return inv, bound <= CERTIFIED_COND  # False at a non-finite bound


def _svd_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solutions of a stack (r, l, l) against (r, l), each matrix cut
    at ``PINV_RCOND`` times its own largest singular value, and their flags."""
    u, s, vt, keep = _svd_cut(a, None)
    ub = (b[..., None, :] @ u)[..., 0, :]
    x = (np.divide(ub, s, out=np.zeros_like(s), where=keep)[..., None, :] @ vt)[..., 0, :]
    return x, ~keep.all(axis=-1)


def pinv_solve(a: np.ndarray, b: np.ndarray, certify: bool = True):
    """Minimum-norm least-squares solution of ``a @ x = b``.

    ``a`` is one ``(l, l)`` matrix with ``b`` of shape ``(l,)``, or a stack
    ``(..., l, l)`` with right-hand sides ``(..., l)``; a single matrix is a
    stack of one.  The stack is inverted at once (:func:`certified_inverse`),
    and a certified matrix, whose condition number is at most
    ``CERTIFIED_COND``, gets ``A^-1 b``: the SVD would keep all its singular
    values, so this is the minimum-norm solution, to a relative
    ``l * cond * eps``.  Every other matrix, a non-finite one included, and
    every matrix with ``certify=False`` (a caller that knows the attempt would
    fail), gets an SVD cut at ``PINV_RCOND`` times its own largest singular
    value, with no anchor: the solver serves normal matrices ``X'diag(w)X``
    with ``w >= 0``, sums of PSD rank-one terms whose largest singular value is
    their own scale, so they cannot cancel to float residue.  A matrix's route
    and bits depend on it alone, not on its stack.

    Returns the solutions, the rank-deficiency flags and the certified flags
    (bools for one matrix, bool arrays for a stack).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape, l = a.shape[:-2], a.shape[-1]
    a, b = a.reshape((math.prod(shape), l, l)), b.reshape((math.prod(shape), l))
    if certify:
        inv, certified = certified_inverse(a)
        with np.errstate(over="ignore", invalid="ignore"):  # rows the SVD replaces
            x = (inv @ b[..., None])[..., 0]
    else:
        certified = np.zeros(len(a), dtype=bool)
    deficient = np.zeros(len(a), dtype=bool)
    if not certified.any():  # a stack the SVD solves whole is not copied
        x, deficient = _svd_solve(a, b)
    elif not certified.all():
        rest = np.flatnonzero(~certified)
        x[rest], deficient[rest] = _svd_solve(a[rest], b[rest])
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
