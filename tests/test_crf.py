import math

import numpy as np
import pytest

from zrxner.errors import UsageError
from zrxner.tagger import crf_nll_grads, viterbi

from oracles import (
    crf_enumerate,
    crf_log_partition,
    crf_marginals,
    crf_nll,
    crf_path_score,
    finite_difference_grads,
)


def random_instance(rng, m=None, k=None):
    m = m or int(rng.integers(1, 5))
    k = k or int(rng.integers(2, 6))
    scores = rng.normal(size=(m, k)) * 2
    trans = rng.normal(size=(k + 2, k + 2)) * 2
    return scores, trans


def test_log_partition_single_position_uniform():
    scores = np.zeros((1, 2))
    trans = np.zeros((4, 4))
    assert crf_log_partition(scores, trans) == pytest.approx(math.log(2), abs=1e-12)


def test_log_partition_all_zero_is_m_log_k():
    for m, k in [(1, 3), (2, 2), (4, 5), (3, 4)]:
        scores = np.zeros((m, k))
        trans = np.zeros((k + 2, k + 2))
        assert crf_log_partition(scores, trans) == pytest.approx(
            m * math.log(k), abs=1e-10
        )


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(60):
        scores, trans = random_instance(rng)
        expected, _, _, _ = crf_enumerate(scores, trans)
        assert crf_log_partition(scores, trans) == pytest.approx(
            expected, abs=1e-8
        )


def test_marginals_match_enumeration_and_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(40):
        scores, trans = random_instance(rng)
        _, _, _, expected = crf_enumerate(scores, trans)
        marg, _ = crf_marginals(scores, trans)
        np.testing.assert_allclose(marg, expected, atol=1e-8)
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-10)


def test_path_probabilities_normalize():
    import itertools

    rng = np.random.default_rng(2)
    for _ in range(20):
        scores, trans = random_instance(rng)
        m, k = scores.shape
        logz = crf_log_partition(scores, trans)
        total = sum(
            math.exp(crf_path_score(scores, trans, path) - logz)
            for path in itertools.product(range(k), repeat=m)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_nll_dominant_path_limit():
    scores = np.zeros((3, 3))
    scores[0, 1] = scores[1, 2] = scores[2, 0] = 1e4
    trans = np.zeros((5, 5))
    assert crf_nll(scores, trans, [1, 2, 0]) < 1e-8


def test_nll_zero_parameters_is_m_log_k():
    scores = np.zeros((4, 3))
    trans = np.zeros((5, 5))
    assert crf_nll(scores, trans, [0, 1, 2, 0]) == pytest.approx(
        4 * math.log(3), abs=1e-10
    )


def test_nll_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        scores, trans = random_instance(rng)
        m, k = scores.shape
        path = [int(rng.integers(0, k)) for _ in range(m)]
        logz, _, _, _ = crf_enumerate(scores, trans)
        expected = logz - crf_path_score(scores, trans, path)
        assert crf_nll(scores, trans, path) == pytest.approx(expected, abs=1e-8)
        assert crf_nll(scores, trans, path) >= -1e-12


def test_nll_rejects_bad_path():
    with pytest.raises(UsageError):
        crf_nll(np.zeros((2, 3)), np.zeros((5, 5)), [0, 3])


def test_viterbi_all_zero_ties_to_lowest_index():
    assert viterbi(np.zeros((1, 4, 3)), np.zeros((5, 5)), [4]) == [[0, 0, 0, 0]]


def test_viterbi_dominant_emissions():
    scores = np.zeros((3, 4))
    scores[0, 2] = scores[1, 0] = scores[2, 3] = 100.0
    assert viterbi(scores[None], np.zeros((6, 6)), [3]) == [[2, 0, 3]]


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(80):
        scores, trans = random_instance(rng)
        _, best_path, best_score, _ = crf_enumerate(scores, trans)
        got = viterbi(scores[None], trans, [len(scores)])[0]
        got_score = crf_path_score(scores, trans, got)
        # only compare paths when the optimum is unique enough
        assert got_score == pytest.approx(best_score, abs=1e-10)
        checked += 1
        if abs(got_score - best_score) < 1e-10:
            assert got == best_path or got_score >= best_score - 1e-10
    assert checked == 80


def test_emission_shift_invariance():
    # adding c to every emission of one position shifts log Z by c and leaves
    # viterbi and marginals unchanged
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores, trans = random_instance(rng, m=3, k=4)
        c = float(rng.normal() * 3)
        shifted = scores.copy()
        shifted[1] += c
        assert crf_log_partition(shifted, trans) == pytest.approx(
            crf_log_partition(scores, trans) + c, abs=1e-9
        )
        assert viterbi(shifted[None], trans, [3]) == viterbi(scores[None], trans, [3])
        m1, _ = crf_marginals(scores, trans)
        m2, _ = crf_marginals(shifted, trans)
        np.testing.assert_allclose(m1, m2, atol=1e-9)


def test_crf_grads_match_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(5):
        scores, trans = random_instance(rng, m=3, k=3)
        path = [1, 0, 2]
        params = {"scores": scores, "trans": trans}
        fd = finite_difference_grads(
            lambda: crf_nll(scores, trans, path), params, h=1e-6
        )
        _, dscores, dtrans = crf_nll_grads(scores[None], trans, [path], [3])
        np.testing.assert_allclose(dscores[0], fd["scores"], atol=1e-7)
        np.testing.assert_allclose(dtrans, fd["trans"], atol=1e-7)
