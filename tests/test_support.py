"""Designs built from their support, pinned to the dense references: the
arm-block joint, the counted joints of uniform supports and Monte-Carlo
draws, and the multinomial proof."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import design_matrix, make_from_sampler
from dbexp import design as design_module
from dbexp._linalg import min_max_eig
from dbexp.design import _co_treated, _joint_from_counts, _joint_from_support, _validate_joint
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


@st.composite
def stacks(draw):
    """(S, n) 0/1 stacks with n <= 8 and S <= 64, as int8, bool or float64."""
    n = draw(st.integers(min_value=1, max_value=8))
    s = draw(st.integers(min_value=0, max_value=64))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * s, max_size=n * s))
    dtype = draw(st.sampled_from([np.int8, bool, np.float64]))
    return np.array(bits, dtype=dtype).reshape(s, n)


@PROPERTY
@given(stacks())
def test_co_treated_counts_are_the_float64_gram_in_any_chunking(z):
    reference = z.astype(float).T @ z.astype(float)
    assert _co_treated(z).dtype == np.float64
    np.testing.assert_array_equal(_co_treated(z), reference)
    with mock.patch.object(design_module, "_CO_TREATED_ROWS", 3):
        np.testing.assert_array_equal(_co_treated(z), reference)


@st.composite
def uniform_supports(draw):
    """An identified support of S <= 64 rows over n <= 8 units: up to 32 rows,
    some repeated, and their complements."""
    n = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    half = draw(st.lists(row, min_size=1, max_size=32))
    return np.concatenate([half, 1 - np.array(half)]).astype(np.int8)


@PROPERTY
@given(uniform_supports())
def test_uniform_law_joint_is_the_row_count_over_the_rows(support):
    """Equal probabilities build the joint from counts: each entry is its count
    over S exactly, within 4 S eps of the arm blocks with their zero pattern,
    and a valid joint."""
    size, n = support.shape
    joint = make_from_sampler(((z, 1.0 / size) for z in support), n, mode="enumerate").joint
    counted = counted_joint(support, n)
    np.testing.assert_array_equal(joint, counted)
    np.testing.assert_array_equal(_joint_from_counts(_co_treated(support), size), counted)
    arm_blocks = _joint_from_support(support, np.full(size, 1.0 / size))
    assert np.abs(joint - arm_blocks).max() <= 4 * size * np.finfo(float).eps
    np.testing.assert_array_equal(joint == 0.0, arm_blocks == 0.0)
    _validate_joint(n, joint, np.diag(joint).copy())
