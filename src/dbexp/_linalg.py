"""Shared linear-algebra helpers: pseudo-inverses and PSD certification."""

import numpy as np

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


def pinv_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Minimum-norm least-squares solution of ``a @ x = b`` via an SVD.

    ``a`` is one ``(l, l)`` matrix with ``b`` of shape ``(l,)``, or a stack
    ``(..., l, l)`` with right-hand sides ``(..., l)``; a single matrix is a
    stack of one.  Each matrix is cut at ``PINV_RCOND`` times its own largest
    singular value, with no anchor: the solver serves normal matrices
    ``X'diag(w)X`` with ``w >= 0``, sums of PSD rank-one terms whose largest
    singular value is their own scale, so they cannot cancel to float residue.
    Returns the solutions and the rank-deficiency flags (a bool for one
    matrix, a bool array for a stack).
    """
    u, s, vt, keep = _svd_cut(a, None)
    ub = (np.asarray(b, dtype=float)[..., None, :] @ u)[..., 0, :]
    x = (np.divide(ub, s, out=np.zeros_like(s), where=keep)[..., None, :] @ vt)[..., 0, :]
    deficient = ~keep.all(axis=-1)
    return x, (bool(deficient) if deficient.ndim == 0 else deficient)


def normal_system(
    x: np.ndarray, core: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The system ``(X'MX) b = X'M v`` for a layout ``X`` and a square core ``M``.

    Returns ``X'M``, ``X'MX``, the pseudo-inverse of ``X'MX`` and its
    rank-deficiency flag.  The cutoff is anchored at ``||X||^2 ||M||``, the
    pre-cancellation magnitude: the normal matrix can be exactly zero in exact
    arithmetic when ``M`` annihilates the layout's columns.
    """
    xm = x.T @ core
    normal = xm @ x
    anchor = float(np.linalg.norm(x)) ** 2 * float(np.linalg.norm(core))
    ginv, deficient = _pinv_flagged(normal, anchor)
    return xm, normal, ginv, deficient


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(np.asarray(a, dtype=float)))


def min_max_eig(a: np.ndarray) -> tuple[float, float]:
    vals = sym_eigvals(a)
    if vals.size == 0:
        return 0.0, 0.0
    return float(vals[0]), float(vals[-1])


def psd_project(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping eigenvalues."""
    vals, vecs = np.linalg.eigh(symmetrize(a))
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.T
