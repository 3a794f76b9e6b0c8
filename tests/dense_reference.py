"""Dense reference computations that the tests pin the fast paths against.

Each function writes out on the full 2n x 2n arrays what the package computes
in kind form, by arm blocks, block by block or per mask component.
"""

import itertools
from collections import Counter

import numpy as np

from dbexp import BoundConvergenceError
from dbexp.bounds import ITERATIVE_TOL, PSD_TOL

# -- analytic designs -----------------------------------------------------------


def dense_group_design(group_ids, m1):
    """Joint and marginals of complete randomization of ``m1`` groups, written
    slot pair by slot pair from the group-level probabilities."""
    _, index = np.unique(np.asarray(group_ids), return_inverse=True)
    n, m = index.shape[0], int(index.max()) + 1
    m0 = m - m1
    pi = [m0 / m, m1 / m]
    pairs = [[m0 * (m0 - 1) / (m * (m - 1)), m0 * m1 / (m * (m - 1))],
             [m0 * m1 / (m * (m - 1)), m1 * (m1 - 1) / (m * (m - 1))]]
    joint = np.empty((2 * n, 2 * n))
    for a, b, i, j in itertools.product(range(2), range(2), range(n), range(n)):
        if index[i] == index[j]:
            joint[a * n + i, b * n + j] = pi[a] if a == b else 0.0
        else:
            joint[a * n + i, b * n + j] = pairs[a][b]
    return joint, np.repeat(pi, n)


def dense_bernoulli(pi1):
    """Joint and marginals of independent assignment, slot pair by slot pair."""
    pi1 = [float(p) for p in pi1]
    pi = [[1.0 - p for p in pi1], pi1]
    n = len(pi1)
    joint = np.empty((2 * n, 2 * n))
    for a, b, i, j in itertools.product(range(2), range(2), range(n), range(n)):
        if i == j:
            joint[a * n + i, b * n + j] = pi[a][i] if a == b else 0.0
        else:
            joint[a * n + i, b * n + j] = pi[a][i] * pi[b][j]
    return joint, np.concatenate(pi)


# -- designs from their support -------------------------------------------------


def dense_support_joint(support, probs):
    """Joint of the law ``probs`` over the rows of ``support``: one product of
    the (S, 2n) observation indicators [1 - z, z] with themselves."""
    z = np.asarray(support, dtype=float)
    indicators = np.hstack([1.0 - z, z])
    return indicators.T @ (indicators * np.asarray(probs, dtype=float)[:, None])


def counted_joint(rows, n):
    """Empirical joint of sampled assignments, slot pair by slot pair: the number
    of rows that observe both slots, counted in integers, over the row count."""
    counts = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for z, count in Counter(tuple(int(v) for v in row) for row in rows).items():
        slots = [arm * n + i for arm in (0, 1) for i in range(n) if z[i] == arm]
        counts[np.ix_(slots, slots)] += count
    return counts / len(rows)


# -- the matrices derived from a joint --------------------------------------------


def dense_design_matrix(joint, marginals):
    """The covariance structure D and the mask of jointly unobservable pairs."""
    outer = np.outer(marginals, marginals)
    return (joint - outer) / outer, joint == 0.0


def dense_as_bound(values, mask):
    """D plus the signless Laplacian of the unobservable-pair graph."""
    maskf = mask.astype(float)
    return values + maskf + np.diag(maskf.sum(axis=1))


def dense_cluster_bound(values, cluster_ids):
    """D plus the same-cluster indicator in all four arm blocks."""
    ids = np.asarray(cluster_ids)
    same = (ids[:, None] == ids[None, :]).astype(float)
    return values + np.block([[same, same], [same, same]])


def dense_weighted(values, joint):
    """A bound over the joint probabilities, zero-probability slots left harmless."""
    return values / (joint + (joint == 0.0))


# -- bounds without a closed form ---------------------------------------------------


def dense_iterative(dmat, max_iters=500):
    """The alternating projections on the whole 2n x 2n matrix, written out densely.

    Returns the bound values, the iteration count and the min-eigenvalue trace,
    or raises BoundConvergenceError with the trace.
    """
    mask = dmat.mask
    t = mask.astype(float)
    trace = []
    for iteration in range(max_iters):
        vals = np.linalg.eigvalsh((t + t.T) / 2.0)
        lo = float(vals[0])
        trace.append(lo)
        scale = max(abs(lo), abs(float(vals[-1])), 1.0)
        if lo >= -ITERATIVE_TOL * scale:
            t[mask] = 1.0
            return dmat.values + t, iteration, trace
        vals, vecs = np.linalg.eigh((t + t.T) / 2.0)
        t = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        t[mask] = 1.0
        t = (t + t.T) / 2.0
    raise BoundConvergenceError("no PSD fixed point", trace)


def dense_order_verdict(diff):
    """PSD-order verdict and spectrum summary from one dense eigendecomposition."""
    vals = np.linalg.eigvalsh((diff + diff.T) / 2.0)
    lo, hi = float(vals[0]), float(vals[-1])
    scale = max(abs(lo), abs(hi), 1.0)
    b_minus_a_psd = lo >= -PSD_TOL * scale
    a_minus_b_psd = hi <= PSD_TOL * scale
    if b_minus_a_psd and a_minus_b_psd:
        verdict = "tie"
    elif b_minus_a_psd:
        verdict = "a_tighter"
    elif a_minus_b_psd:
        verdict = "b_tighter"
    else:
        verdict = "incomparable"
    return verdict, lo, hi, float(vals.sum())
