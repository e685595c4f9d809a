"""Relative-density bound formulas, sharpness identities, and the chain."""

import math
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyporb.bounds import (
    R_of_w,
    default_w_grid,
    lambda_lower,
    lambda_table,
    ratio_cone_over_disc,
    ratio_puncture_over_disc,
    ratio_upper,
    verify_bound_chain,
)
from hyporb.errors import DomainError

# mpmath oracle values
LAMBDA_LN2 = 1.1547005383792515       # 2/sqrt(3)
LAMBDA_1 = 1.0754151025300257         # e/sqrt(e^2 - 1)
SHARP_HALF = 1.0606601717798212       # (1 + 0.5) / (2 sqrt(0.5))
PUNCT_HALF = 1.0820212806667226
PUNCT_TENTH = 2.1497576854210965


def test_lambda_lower_examples():
    assert abs(lambda_lower(math.log(2.0)) - LAMBDA_LN2) < 1e-14
    assert abs(lambda_lower(1.0) - LAMBDA_1) < 1e-14
    with pytest.raises(DomainError):
        lambda_lower(0.0)


def test_lambda_lower_above_one_and_decreasing():
    rs = sorted(R for R in [1e-6 * 1.5**j for j in range(0, 60)] + [10.0, 20.0, 36.0, 50.0] if R <= 50)
    prev = math.inf
    for R in rs:
        val = lambda_lower(R)
        assert val > 1.0
        assert val <= prev
        prev = val
    # strict decrease while the values are resolvable in double precision
    grid = [0.01 * j for j in range(1, 1500)]
    vals = [lambda_lower(R) for R in grid]
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_ratio_upper_examples():
    assert abs(ratio_upper(math.log(3.0)) - 2.0) < 1e-13
    assert abs(ratio_upper(math.log(2.0)) - 3.0) < 1e-13
    for w in [0.01 * j for j in range(1, 100)]:
        assert abs(ratio_upper(R_of_w(w)) * w - 1.0) <= 1e-12


def test_w_R_round_trip():
    for w in (0.001, 0.1, 0.5, 0.9, 0.999):
        assert abs(math.tanh(0.5 * R_of_w(w)) - w) < 1e-15


def test_ratio_cone_examples():
    assert abs(ratio_cone_over_disc(2, 0.5) - SHARP_HALF) < 1e-14
    # large-order limit approaches the puncture quotient
    assert abs(ratio_cone_over_disc(4096, 0.5) - PUNCT_HALF) < 1e-6


def test_ratio_puncture_examples():
    assert abs(ratio_puncture_over_disc(0.5) - PUNCT_HALF) < 1e-14
    assert abs(ratio_puncture_over_disc(0.1) - PUNCT_TENTH) < 1e-14
    # upper bound attained in the limit w -> 1
    for w in (0.99, 0.999, 0.9999):
        assert abs(ratio_puncture_over_disc(w) * w - 1.0) < 3.0 * (1.0 - w)


def test_sharpness_identity_on_grid():
    for w in default_w_grid(999):
        lhs = ratio_cone_over_disc(2, w)
        rhs = lambda_lower(R_of_w(w))
        assert abs(lhs - rhs) <= 1e-12


def test_default_w_grid_values_and_range():
    assert default_w_grid(3) == [0.001, 0.002, 0.003]
    assert default_w_grid()[-1] == 0.999
    for bad in (0, 1000):
        with pytest.raises(DomainError):
            default_w_grid(bad)


def test_bound_chain_default_grid():
    result = verify_bound_chain(default_w_grid(200), range(2, 17))
    assert result.passed
    assert result.worst_slack <= 1e-10


def test_bound_chain_samples_are_the_checked_pairs():
    samples = verify_bound_chain(default_w_grid(999), range(2, 65)).samples
    assert len(samples) == 63_936
    assert samples[0] == (0.001, 2)
    assert samples[-1] == (0.999, None)


def _pairs_one_by_one(w_grid, k_set):
    """The checked pairs as a per-sample loop lists them: each w with every k, then with None."""
    pairs = []
    for w in w_grid:
        for k in sorted(set(k_set)):
            pairs.append((w, k))
        pairs.append((w, None))
    return pairs


@pytest.mark.parametrize("w_grid, k_set", [
    (default_w_grid(7), range(2, 6)),
    ([0.5, 0.25, 0.5, 0.9], [7, 3, 3, 2, 7]),
    (default_w_grid(5), []),
    ([], [2, 3]),
])
def test_bound_chain_samples_view_lists_the_pairs_of_a_per_sample_loop(w_grid, k_set):
    samples = verify_bound_chain(w_grid, k_set).samples
    want = _pairs_one_by_one(w_grid, k_set)
    assert isinstance(samples, Sequence)
    assert list(samples) == want and len(samples) == len(want)
    assert [samples[i] for i in range(-len(want), len(want))] == want + want
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            samples[i]


def test_bound_chain_takes_its_grid_from_a_generator():
    grid = default_w_grid(40)
    want = verify_bound_chain(grid, [2, 5])
    got = verify_bound_chain((w for w in grid), [2, 5])
    assert list(got.samples) == list(want.samples)
    assert (got.violations, got.worst_slack) == (want.violations, want.worst_slack)


def test_bound_chain_stores_no_sample_pairs():
    # a tuple per checked pair would take about 4 MB
    grid = default_w_grid(999)
    tracemalloc.start()
    try:
        result = verify_bound_chain(grid, range(2, 65))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.samples) == 63_936
    assert peak < 0.5e6, peak


def test_bound_chain_counts_a_nan_step_as_a_violation():
    # at subnormal w the puncture ratio and the upper bound both overflow to
    # inf, so their difference is nan: that step was never checked
    result = verify_bound_chain([5e-324], [])
    assert not result.passed
    [violation] = result.violations
    assert violation.description == "ratio_puncture <= ratio_upper"
    assert math.isnan(violation.slack)
    assert result.worst_slack == -math.inf  # nan shortfalls are left out of it
    # the CLI's grid has no such step
    assert verify_bound_chain(default_w_grid(999), range(2, 65)).passed


def test_bound_chain_monotone_in_k():
    for w in (0.05, 0.3, 0.6, 0.95):
        prev = 0.0
        for k in range(2, 65):
            val = ratio_cone_over_disc(k, w)
            assert val > prev
            prev = val
        assert prev < ratio_puncture_over_disc(w)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=0.9999),
    st.integers(min_value=2, max_value=128),
)
def test_bound_chain_random(w, k):
    R = R_of_w(w)
    lo = lambda_lower(R)
    cone = ratio_cone_over_disc(k, w)
    punct = ratio_puncture_over_disc(w)
    up = ratio_upper(R)
    assert lo <= cone + 1e-12
    assert cone <= punct + 1e-12
    assert punct <= up + 1e-12


def test_lambda_table_shape():
    table = lambda_table(0.05, 8.0, 160)
    assert len(table) == 160
    assert table[0][0] == 0.05 and table[-1][0] == 8.0
    vals = [v for _, v in table]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)
