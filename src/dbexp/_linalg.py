"""Shared linear-algebra helpers: pseudo-inverses and PSD certification."""

import numpy as np

# Singular values below PINV_RCOND * sigma_max are treated as zero everywhere a
# generalized inverse is taken.  Conjugate estimates are invariant to the choice
# of generalized inverse, so the cutoff only affects reported coefficients.
PINV_RCOND = 1e-12


def _svd_cut(a: np.ndarray, scale: float | None):
    """SVD of ``a`` with the mask of singular values above the package cutoff."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    cutoff = PINV_RCOND * max(s[0] if s.size else 0.0, scale or 0.0)
    return u, s, vt, s > cutoff


def _pinv_flagged(a: np.ndarray, scale: float | None) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of ``a`` and whether it was rank deficient at the cutoff."""
    u, s, vt, keep = _svd_cut(a, scale)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T, bool((~keep).any())


def pinv(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package-wide singular value cutoff.

    ``scale`` anchors the cutoff when the matrix is a product that is zero in
    exact arithmetic (e.g. a normal matrix over directions a covariance
    structure annihilates): singular values below ``PINV_RCOND * scale`` are
    float residue, not signal, and are dropped rather than inverted.
    """
    return _pinv_flagged(a, scale)[0]


def pinv_solve(
    a: np.ndarray, b: np.ndarray, scale: float | None = None
) -> tuple[np.ndarray, bool]:
    """Solve ``a @ x = b`` in the least-squares sense via an SVD pseudo-inverse.

    Returns the minimum-norm solution and a flag that is True when ``a`` was
    rank deficient at the cutoff (duplicated columns, empty arm, ...).
    ``scale`` has the same role as in :func:`pinv`.
    """
    b = np.asarray(b, dtype=float)
    u, s, vt, keep = _svd_cut(a, scale)
    ub = u[:, keep].T @ b
    if b.ndim == 1:
        x = vt[keep].T @ (ub / s[keep])
    else:
        x = vt[keep].T @ (ub / s[keep][:, None])
    return x, bool((~keep).any())


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


def product_scale(left: np.ndarray, right: np.ndarray) -> float:
    """Frobenius upper bound on the norm of ``left @ right`` (cutoff anchor)."""
    return float(np.linalg.norm(left) * np.linalg.norm(right))


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
