"""Designs built from their support, pinned to the dense references: the
arm-block joint, the counted Monte-Carlo joint and the multinomial proof."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import design_matrix, make_from_sampler
from dbexp._linalg import min_max_eig
from dbexp.design import _joint_from_support
from dense_reference import counted_joint, dense_support_joint

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

#: A probability weight: often exactly zero, else anywhere up to one.
WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


@st.composite
def rows(draw):
    """(S, n) 0/1 assignments over n <= 8 units, some rows repeated."""
    n = draw(st.integers(min_value=2, max_value=8))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    distinct = draw(st.lists(row, min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(range(len(distinct))), max_size=4))
    return np.array(distinct + [distinct[i] for i in repeats], dtype=np.int8)


@st.composite
def supports(draw):
    """An identified support: every row comes with its complement, and the
    first pair has positive weight.  Returns the rows and probabilities."""
    half = draw(rows())
    support = np.concatenate([half, 1 - half])
    weights = np.array(draw(st.lists(WEIGHT, min_size=len(support), max_size=len(support))))
    weights[[0, len(half)]] += 0.5
    return support, weights / weights.sum()


@PROPERTY
@given(rows(), st.data())
def test_arm_block_joint_equals_the_indicator_product(support, data):
    weights = np.array(data.draw(st.lists(WEIGHT, min_size=len(support), max_size=len(support))))
    probs = weights / max(weights.sum(), 1.0)
    joint = _joint_from_support(support, probs)
    reference = dense_support_joint(support, probs)
    np.testing.assert_allclose(joint, reference, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(joint == 0.0, reference == 0.0)


@PROPERTY
@given(rows())
def test_monte_carlo_joint_is_the_counted_joint(half):
    draws = np.concatenate([half, 1 - half])  # every unit drawn in both arms
    stream = iter(draws)
    n = draws.shape[1]
    design = make_from_sampler(lambda rng: next(stream), n, draws=len(draws), mode="monte_carlo")
    np.testing.assert_array_equal(design.joint, counted_joint(draws, n))
    np.testing.assert_array_equal(design.joint, design.joint.T)


@PROPERTY
@given(supports())
def test_multinomial_proof_agrees_with_eigvalsh(support_and_probs):
    support, probs = support_and_probs
    design = make_from_sampler(zip(support, probs), support.shape[1], mode="enumerate")
    dmat = design_matrix(design)
    assert dmat.certificate == "closed_form"
    lo, hi = min_max_eig(dmat.values)
    assert lo >= -1e-8 * max(abs(lo), abs(hi), 1.0)


def test_probability_slack_is_normalized_before_the_proof():
    # 12 pairs, one unit treated per pair, probabilities summing to 1 + 9e-10.
    # Used as given, they put an eigenvalue near -2n (s - 1) = -4.3e-8 on the
    # ones vector, outside the PSD rule; divided by their sum they put none
    pairs = itertools.product(([1, 0], [0, 1]), repeat=12)
    support = np.array([np.concatenate(pair) for pair in pairs], dtype=np.int8)
    probs = np.full(len(support), (1.0 + 9e-10) / len(support))
    dmat = design_matrix(make_from_sampler(zip(support, probs), 24, mode="enumerate"))
    assert dmat.certificate == "closed_form"
    lo, hi = min_max_eig(dmat.values)
    assert lo >= -1e-8 * max(abs(lo), abs(hi), 1.0)
