"""Tests for the deterministic Gaussian stream and seed derivation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dplqg.rng import (
    COST_MATRIX,
    INIT_STATE,
    PRIVACY_NOISE,
    PROCESS_NOISE,
    GaussianStream,
    derive_stream,
    psd_factor,
)


def test_golden_draws_seed_zero():
    # These literals pin the Philox + Box-Muller pipeline. If any of them
    # move, every recorded trace in the wild silently re-randomizes.
    z = GaussianStream(0).standard_normal(4)
    assert z[0] == -0.008211587544399778
    assert z[1] == 0.16812613774348753
    assert z[2] == 0.9481955881183344
    assert z[3] == 0.6136754112581602


def test_same_seed_same_stream():
    a = GaussianStream(12345).standard_normal(1001)
    b = GaussianStream(12345).standard_normal(1001)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = GaussianStream(1).standard_normal(8)
    b = GaussianStream(2).standard_normal(8)
    assert not np.array_equal(a, b)


def test_draws_consume_whole_pairs():
    # An odd-size draw discards the sine half of its last pair rather than
    # caching it, so two draws of 1 are NOT the first two values of a draw
    # of 2. This is deliberate: the k-th value of a call depends only on the
    # state at entry and the call size, which makes logs replayable.
    a = GaussianStream(5)
    first = a.standard_normal(1)[0]
    second = a.standard_normal(1)[0]
    pair = GaussianStream(5).standard_normal(2)
    assert first == pair[0]
    assert second != pair[1]
    assert first == 1.7596498611626625
    assert second == 0.49923770137966084


def test_draw_size_edge_cases():
    s = GaussianStream(0)
    assert s.standard_normal(0).shape == (0,)
    # a zero-size draw consumes nothing from the stream
    assert np.array_equal(s.standard_normal(3), GaussianStream(0).standard_normal(3))
    # sizes are integers >= 0, not converted: 2.7 would draw 2 values
    for bad in (-1, 2.7, 2.0, "3", True):
        with pytest.raises(ValueError, match="size must be an integer >= 0"):
            s.standard_normal(bad)
    assert np.array_equal(GaussianStream(0).standard_normal(np.int64(3)),
                          GaussianStream(0).standard_normal(3))


@pytest.mark.parametrize("rows, width", [(1, 1), (5, 1), (7, 2), (6, 3), (4, 4), (3, 5),
                                         (3, 0)])
def test_row_draws_equal_successive_calls(rows, width):
    block = GaussianStream(17).standard_normal_rows(rows, width)
    stream = GaussianStream(17)
    calls = np.array([stream.standard_normal(width) for _ in range(rows)])
    assert block.shape == (rows, width)
    assert np.array_equal(block, calls)
    # the stream ends where the successive calls leave it
    rest = GaussianStream(17)
    rest.standard_normal_rows(rows, width)
    assert np.array_equal(rest.standard_normal(5), stream.standard_normal(5))
    # two row draws of a and b rows equal one draw of a + b rows
    split = GaussianStream(17)
    head = split.standard_normal_rows(rows // 2, width)
    tail = split.standard_normal_rows(rows - rows // 2, width)
    assert np.array_equal(np.vstack((head, tail)), block)


def test_row_draw_edge_cases():
    s = GaussianStream(0)
    assert s.standard_normal_rows(0, 3).shape == (0, 3)
    # zero rows draw nothing
    assert np.array_equal(s.standard_normal(3), GaussianStream(0).standard_normal(3))
    for rows, width in [(-1, 2), (2, -1), (2.5, 1), (2, 1.9), (2.5, 1.9), ("2", 1),
                        (2, False)]:
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            s.standard_normal_rows(rows, width)
    assert s.standard_normal_rows(np.int32(2), np.uint8(1)).shape == (2, 1)


def test_moments_and_tail_fractions():
    z = GaussianStream(2024).standard_normal(400_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.std() - 1.0) < 0.005
    within_one = np.mean(np.abs(z) < 1.0)
    assert abs(within_one - 0.6826894921370859) < 0.005
    within_two = np.mean(np.abs(z) < 2.0)
    assert abs(within_two - 0.9544997361036416) < 0.003


def test_normality_kolmogorov_smirnov():
    z = GaussianStream(77).standard_normal(50_000)
    stat, pvalue = stats.kstest(z, "norm")
    assert pvalue > 0.01, (stat, pvalue)


def test_pairs_are_uncorrelated():
    # Box-Muller cos/sin pairs share (r, angle); check the joint output is
    # still uncorrelated across consecutive positions.
    z = GaussianStream(31).standard_normal(200_000)
    r = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(r) < 0.01


def test_derive_stream_golden_and_separated():
    d = derive_stream(42, 1, PRIVACY_NOISE)
    z = d.standard_normal(3)
    assert z[0] == -0.9984501826606085
    assert z[1] == -1.3119431416804137
    assert z[2] == 1.9506081597059066

    base = derive_stream(42, 0, PROCESS_NOISE).standard_normal(6)
    for entity, kind in [(0, PRIVACY_NOISE), (0, INIT_STATE), (1, PROCESS_NOISE),
                         (0, COST_MATRIX), (3, PRIVACY_NOISE)]:
        other = derive_stream(42, entity, kind).standard_normal(6)
        assert not np.array_equal(base, other), (entity, kind)

    # numpy integers select the same stream; anything else is rejected
    # rather than converted (2.7 and True would draw seeds 2 and 1)
    z_np = derive_stream(np.int64(42), np.uint8(1), np.int32(PRIVACY_NOISE))
    assert np.array_equal(z_np.standard_normal(3), z)
    for args in [(2.7, 0, 1), ("12", 0, 1), (True, 0, 1), (-1, 0, 1),
                 (0, 1.0, 1), (0, -2, 1), (0, 0, 1.5), (0, 0, None)]:
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            derive_stream(*args)


def test_derive_stream_kind_codes_are_stable():
    assert PROCESS_NOISE == 0
    assert PRIVACY_NOISE == 1
    assert INIT_STATE == 2
    assert COST_MATRIX == 3


def test_correlated_draw_matches_factor_product():
    F = np.array([[2.0, 0.0], [1.0, 0.5], [0.0, 3.0]])
    z = GaussianStream(6).standard_normal(2)
    w = GaussianStream(6).correlated(F)
    assert w.shape == (3,)
    assert_allclose(w, F @ z, rtol=0.0, atol=0.0)


def test_correlated_empirical_covariance():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    F = psd_factor(cov)
    stream = GaussianStream(123)
    draws = np.array([stream.correlated(F) for _ in range(40_000)])
    emp = np.cov(draws.T)
    assert_allclose(emp, cov, atol=0.05)


def test_psd_factor_positive_definite_uses_cholesky():
    M = np.array([[4.0, 1.0], [1.0, 3.0]])
    F = psd_factor(M)
    assert_allclose(F, np.linalg.cholesky(M), rtol=1e-12)
    assert_allclose(F @ F.T, M, rtol=1e-12)


def test_psd_factor_semidefinite_fallback():
    # Rank-1 PSD matrix; Cholesky fails, eigen route must still factor it.
    v = np.array([1.0, 2.0, -1.0])
    M = np.outer(v, v)
    F = psd_factor(M)
    assert_allclose(F @ F.T, M, atol=1e-10)


def test_psd_factor_rejects_indefinite_and_nonsquare():
    with pytest.raises(ValueError):
        psd_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        psd_factor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="covariance must have at least one row"):
        psd_factor(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        psd_factor(np.array([[1.0, 0.5], [0.1, 1.0]]))  # asymmetric
    for bad in ([[np.inf]], [[np.nan]]):
        with pytest.raises(ValueError, match="covariance must be finite"):
            psd_factor(bad)
