import copy
import math
import tracemalloc

import numpy as np
import pytest

import zrxner.align as align_mod
from zrxner.align import (
    AlignConfig,
    Discriminator,
    LinearMapper,
    adversarial_train,
    csls_top1,
    induce_dictionary,
    orthogonalize,
    procrustes,
    refine,
    unsupervised_criterion,
)
from zrxner.embeddings import EmbeddingTable
from zrxner.errors import AlignmentError, UsageError
from zrxner.numeric import Rng, sigmoid

from fixtures import precision_at_1, random_orthogonal, synthetic_pair
from oracles import (
    adversary_loss,
    csls,
    csls_top1_two_pass,
    discriminator_loss,
    finite_difference_grads,
    induce_dictionary_two_calls,
)


def constant_half_disc(dim, hidden=8):
    disc = Discriminator(dim, hidden, Rng(0))
    disc.w2[:] = 0.0
    disc.b2 = 0.0
    return disc


def test_discriminator_loss_uniform_classifier():
    disc = constant_half_disc(4)
    rng = np.random.default_rng(0)
    loss = discriminator_loss(
        disc, np.eye(4), rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
    )
    assert loss == pytest.approx(2 * math.log(2), abs=1e-12)


def test_discriminator_loss_perfect_limit():
    # saturate the output unit so p -> 1 for source, p -> 0 for mapped
    disc = Discriminator(2, 2, Rng(1))
    disc.w1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    disc.b1 = np.zeros(2)
    disc.w2 = np.array([4.0, 0.0])
    disc.b2 = 0.0
    src = np.array([[10.0, 0.0]])   # logit +40 -> p ~ 1
    tgt = np.array([[-50.0, 0.0]])  # logit -40 through the leaky path -> p ~ 0
    loss = discriminator_loss(disc, np.eye(2), src, tgt)
    assert 0 < loss < 1e-8


def test_discriminator_loss_hand_summed():
    disc = Discriminator(3, 4, Rng(2))
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 3))
    src = rng.normal(size=(2, 3))
    tgt = rng.normal(size=(3, 3))
    s = 0.1
    p_src = sigmoid(disc.logits(src))
    p_tgt = sigmoid(disc.logits(tgt @ w.T))
    expected = -np.mean(s * np.log(p_tgt) + (1 - s) * np.log(1 - p_tgt))
    expected += -np.mean((1 - s) * np.log(p_src) + s * np.log(1 - p_src))
    assert discriminator_loss(disc, w, src, tgt, s) == pytest.approx(
        expected, abs=1e-9
    )


def test_adversary_loss_uniform_and_hand_summed():
    disc = constant_half_disc(3)
    rng = np.random.default_rng(4)
    assert adversary_loss(
        disc, np.eye(3), rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
    ) == pytest.approx(2 * math.log(2), abs=1e-12)

    disc = Discriminator(3, 5, Rng(5))
    w = rng.normal(size=(3, 3))
    src = rng.normal(size=(3, 3))
    tgt = rng.normal(size=(2, 3))
    p_src = sigmoid(disc.logits(src))
    p_tgt = sigmoid(disc.logits(tgt @ w.T))
    expected = -np.mean(np.log(p_tgt)) - np.mean(np.log(1 - p_src))
    assert adversary_loss(disc, w, src, tgt) == pytest.approx(expected, abs=1e-9)


def test_losses_nonnegative_sweep():
    rng = np.random.default_rng(6)
    for seed in range(10):
        disc = Discriminator(4, 6, Rng(seed))
        w = rng.normal(size=(4, 4))
        src = rng.normal(size=(3, 4))
        tgt = rng.normal(size=(3, 4))
        assert discriminator_loss(disc, w, src, tgt, 0.2) >= 0
        assert adversary_loss(disc, w, src, tgt) >= 0


def test_discriminator_grads_match_finite_differences():
    rng = np.random.default_rng(7)
    disc = Discriminator(3, 4, Rng(8))
    w = rng.normal(size=(3, 3))
    src = rng.normal(size=(2, 3))
    tgt = rng.normal(size=(3, 3))
    s = 0.2
    params = {"w1": disc.w1, "b1": disc.b1, "w2": disc.w2}

    fd = finite_difference_grads(
        lambda: discriminator_loss(disc, w, src, tgt, s), params
    )
    in_t = tgt @ w.T
    dz_t = (sigmoid(disc.logits(in_t)) - s) / len(in_t)
    dz_s = (sigmoid(disc.logits(src)) - (1 - s)) / len(src)
    g_t = disc.backward(in_t, dz_t, disc._forward_cache(in_t))
    g_s = disc.backward(src, dz_s, disc._forward_cache(src))
    for name in params:
        analytic = g_t[name] + g_s[name]
        np.testing.assert_allclose(analytic, fd[name], atol=1e-7)


def test_adversary_w_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    disc = Discriminator(4, 5, Rng(10))
    w = rng.normal(size=(4, 4))
    src = rng.normal(size=(3, 4))
    tgt = rng.normal(size=(3, 4))

    fd = finite_difference_grads(
        lambda: adversary_loss(disc, w, src, tgt), {"w": w}
    )
    mapped = tgt @ w.T
    dz = (sigmoid(disc.logits(mapped)) - 1.0) / len(mapped)
    d_input = disc.input_grad(mapped, dz, disc._forward_cache(mapped))
    np.testing.assert_allclose(d_input.T @ tgt, fd["w"], atol=1e-7)


def test_orthogonalize_fixed_point():
    rng = np.random.default_rng(11)
    w = random_orthogonal(rng, 6)
    assert np.abs(orthogonalize(w, 0.01) - w).max() < 1e-12


def test_adversarial_train_zero_steps_identity():
    src, tgt, _ = synthetic_pair(0, n=20, d=4)
    cfg = AlignConfig(w_steps=0, disc_hidden=8)
    mapper = adversarial_train(src, tgt, Rng(0), cfg)
    np.testing.assert_array_equal(mapper.w, np.eye(4))


def test_keeping_a_log_leaves_the_mapper_bit_identical():
    src, tgt, _ = synthetic_pair(5, n=200, d=8)
    # two full games, so the end-of-game accuracy draws are covered too
    cfg = AlignConfig(w_steps=250, disc_steps=2, batch_size=16, disc_hidden=16,
                      vocab_cap=200, criterion_sample_n=50, csls_k=3,
                      restarts=2, restart_disc_acc=-1.0)
    log = []
    silent = adversarial_train(src, tgt, Rng(0), cfg)
    logged = adversarial_train(src, tgt, Rng(0), cfg, log=log.append)
    assert logged.w.tobytes() == silent.w.tobytes()
    assert [row[0] for row in log] == [0, 100, 200, 249] * 2


def test_logged_losses_are_the_losses_of_the_step(monkeypatch):
    # the discriminator's loss on its last batch, before its update, and the
    # mapper's loss on its batch, recomputed from the inputs the step saw
    seen = []
    original = Discriminator._forward_cache

    def spy(self, x):
        seen.append((copy.deepcopy(self), x.copy()))
        return original(self, x)

    monkeypatch.setattr(Discriminator, "_forward_cache", spy)
    src, tgt, _ = synthetic_pair(6, n=50, d=4)
    cfg = AlignConfig(w_steps=1, disc_steps=3, batch_size=8, disc_hidden=8,
                      vocab_cap=50, criterion_sample_n=20, csls_k=3,
                      restarts=1, label_smoothing=0.2)
    log = []
    adversarial_train(src, tgt, Rng(2), cfg, log=log.append)
    assert len(seen) == 4  # three discriminator batches, one mapper batch
    (disc, batch), (disc_map, mapped) = seen[2], seen[3]
    b, eye = cfg.batch_size, np.eye(4)
    step, d_loss, a_loss = log[0]
    assert step == 0
    assert d_loss == pytest.approx(discriminator_loss(
        disc, eye, batch[b:], batch[:b], cfg.label_smoothing), abs=1e-12)
    assert a_loss == pytest.approx(
        np.logaddexp(0.0, -disc_map.logits(mapped)).mean(), abs=1e-12)


def test_each_mapper_is_scored_once(monkeypatch):
    src, tgt, _ = synthetic_pair(3, n=60, d=6)
    calls = []

    def counting(source, target, mapper, sample_n, k):
        score = unsupervised_criterion(source, target, mapper, sample_n, k)
        calls.append((mapper.w.copy(), score))
        return score

    monkeypatch.setattr(align_mod, "unsupervised_criterion", counting)
    # (w_steps, games, calls per game): after 4 steps the last in-loop score
    # is the final W's; after 5 the final W needs one call of its own
    for w_steps, games, per_game in [(4, 1, 2), (5, 1, 3), (4, 2, 2)]:
        calls.clear()
        cfg = AlignConfig(w_steps=w_steps, select_every=2, restarts=games,
                          restart_disc_acc=-1.0, batch_size=8, disc_hidden=8,
                          vocab_cap=60, criterion_sample_n=30, csls_k=3)
        mapper = adversarial_train(src, tgt, Rng(4), cfg)
        assert len(calls) == games * per_game
        assert len({w.tobytes() for w, _ in calls}) == len(calls)
        # the selection rule: a game returns its final W unless an earlier
        # snapshot scored strictly higher (the first such); the first game
        # with the strictly highest score wins
        chosen = []
        for g in range(games):
            game = calls[g * per_game : (g + 1) * per_game]
            snapshots = game[: w_steps // 2]
            best = max(snapshots, key=lambda c: c[1])  # first of equal maxima
            chosen.append(game[-1] if game[-1][1] >= best[1] else best)
        winner = max(chosen, key=lambda c: c[1])
        assert mapper.w.tobytes() == winner[0].tobytes()

    # a score that no comparison reads is not computed: one game without a
    # snapshot returns its final W unscored
    calls.clear()
    cfg = AlignConfig(w_steps=5, select_every=6, restarts=1, batch_size=8,
                      disc_hidden=8, vocab_cap=60, criterion_sample_n=30,
                      csls_k=3)
    mapper = adversarial_train(src, tgt, Rng(4), cfg)
    assert calls == []
    # two forced games without snapshots: each final W is scored once, and
    # the second wins only by scoring strictly higher
    cfg.select_every, cfg.restarts, cfg.restart_disc_acc = 0, 2, -1.0
    mapper = adversarial_train(src, tgt, Rng(4), cfg)
    assert len(calls) == 2
    (first_w, first), (second_w, second) = calls
    assert first_w.tobytes() == adversarial_train(
        src, tgt, Rng(4), AlignConfig(**{**vars(cfg), "restarts": 1})).w.tobytes()
    winner = second_w if second > first else first_w
    assert mapper.w.tobytes() == winner.tobytes()


def test_csls_self_match_orthonormal():
    basis = np.eye(5)
    scores = csls(basis, basis, k=1)
    assert (scores.argmax(axis=1) == np.arange(5)).all()


def test_csls_hand_computed():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.6, 0.8]])
    scores = csls(q, k, k=1)
    expected = np.array([[0.0, -0.6], [-1.8, 0.0]])
    np.testing.assert_allclose(scores, expected, atol=1e-12)


def test_csls_rotation_invariance():
    rng = np.random.default_rng(12)
    q = rng.normal(size=(6, 4))
    k = rng.normal(size=(7, 4))
    rot = random_orthogonal(rng, 4)
    a = csls(q, k, k=3)
    b = csls(q @ rot, k @ rot, k=3)
    np.testing.assert_allclose(a, b, atol=1e-10)
    assert (a.argmax(axis=1) == b.argmax(axis=1)).all()


def test_csls_k_clamped():
    q = np.eye(3)
    scores = csls(q, q[:2], k=10)  # k larger than both sets
    assert scores.shape == (3, 2)


def test_csls_top1_recovered_rotation_equals_unmapped_cosine_top1():
    # with Q = K rotated and W the recovered rotation, CSLS top-1 of the
    # mapped queries equals the plain cosine top-1 of the identity pairing
    rng = np.random.default_rng(33)
    keys = rng.normal(size=(30, 6))
    omega = random_orthogonal(rng, 6)
    queries = keys @ omega
    mapped = queries @ omega.T  # exact recovery of the unrotated keys
    csls_idx, _ = csls_top1(mapped, keys, k=5)
    kn = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    cosine_idx = (kn @ kn.T).argmax(axis=1)
    assert (csls_idx == cosine_idx).all()
    assert (cosine_idx == np.arange(30)).all()


def quarter_rows(rng, n, d=8):
    """Rows of four entries +-1, the rest 0: unit rows are +-0.5 and 0, so
    every cosine is exact and equal cosines are true ties."""
    rows = np.zeros((n, d))
    for row in rows:
        row[rng.choice(d, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return rows


def test_csls_top1_matches_full_matrix(monkeypatch):
    # 42 cells per tile: key tiles of 6 and query blocks of 7 rows, so the
    # 40 queries and 25 keys below both split into several uneven tiles
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", 42 * 8)
    rng = np.random.default_rng(13)
    q = rng.normal(size=(40, 6))
    keys = rng.normal(size=(25, 6))
    dup = quarter_rows(rng, 12)
    cases = [
        (q, keys, 5),
        (q, keys, 50),  # k larger than either set
        (q[:1], keys, 5),  # one query
        (q, keys[:1], 5),  # one key
        (quarter_rows(rng, 40), np.vstack([dup, dup, dup[:3]]), 5),  # ties
    ]
    for queries, keys, k in cases:
        full = csls(queries, keys, k=k)
        idx, best = csls_top1(queries, keys, k)
        assert (idx == full.argmax(axis=1)).all()
        np.testing.assert_allclose(best, full.max(axis=1), atol=1e-12)
    # the tie case has ties between duplicate keys in different tiles
    queries, keys, k = cases[-1]
    full = csls(queries, keys, k=k)
    tied = (full == full.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() >= 10


def test_csls_top1_memory_is_bounded_by_the_tile_budget(monkeypatch):
    budget = 1 << 19
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", budget)
    rng = np.random.default_rng(19)
    queries = rng.normal(size=(500, 8))

    def peak_beyond_inputs(n_keys):
        keys = rng.normal(size=(n_keys, 8))
        tracemalloc.start()  # the inputs exist already and are not counted
        try:
            csls_top1(queries, keys, 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_beyond_inputs(4000), peak_beyond_inputs(16000)
    assert small < 6 * budget and large < 6 * budget
    # the only state that grows with the keys is one float per key (r_k),
    # 96 kB for the 12000 more keys here
    assert large - small < budget / 4


def _csls_cases(rng, wide=True):
    """(queries, keys, k) pairs: queries near keys, rotated away and random;
    zero rows; exact ties; fewer rows than k on either side; unequal sizes,
    and, if wide, at 300 dimensions, where BLAS rounds a tile and its
    transpose differently."""
    cases = []
    sizes = [(40, 25, 6, 5), (90, 130, 8, 10), (300, 200, 16, 10),
             (3, 50, 8, 10), (50, 4, 8, 10), (7, 9, 6, 10)]
    for nq, nk, d, k in sizes + [(700, 1000, 300, 10)] * wide:
        keys = rng.normal(size=(nk, d))
        near = keys[rng.integers(0, nk, nq)]
        for queries in (near + 0.01 * rng.normal(size=(nq, d)),
                        near @ random_orthogonal(rng, d),
                        rng.normal(size=(nq, d))):
            cases.append((queries, keys, k))
        zeroed_q, zeroed_k = near.copy(), keys.copy()
        zeroed_q[rng.integers(0, nq, 2)] = 0.0
        zeroed_k[rng.integers(0, nk, 2)] = 0.0
        cases.append((zeroed_q, zeroed_k, k))
    dup = quarter_rows(rng, 12)
    cases.append((quarter_rows(rng, 40), np.vstack([dup, dup, dup[:3]]), 5))
    cases.append((quarter_rows(rng, 200), quarter_rows(rng, 150), 10))
    return cases


@pytest.fixture
def rescored(monkeypatch):
    """Counts of the queries searched and of the queries in the blocks
    rescored tile by tile, over every search from candidates."""
    counts = {"queries": 0, "rescored": 0}
    top1, rescore = align_mod._top1, align_mod._rescore

    def counting_top1(qn, *args):
        counts["queries"] += qn.shape[0]
        return top1(qn, *args)

    def counting_rescore(qn, keys, r_q, r_k, key_tiles, blocks, *rest):
        counts["rescored"] += sum(hi - lo for lo, hi in blocks)
        return rescore(qn, keys, r_q, r_k, key_tiles, blocks, *rest)

    monkeypatch.setattr(align_mod, "_top1", counting_top1)
    monkeypatch.setattr(align_mod, "_rescore", counting_rescore)
    return counts


@pytest.mark.parametrize("tile_bytes", [42 * 8, 1 << 12, 4 << 20])
def test_csls_top1_equals_the_two_pass_search(monkeypatch, rescored, tile_bytes):
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(41)
    # 300-d tables in 42-cell tiles would take 19k tiles a search
    for queries, keys, k in _csls_cases(rng, wide=tile_bytes > 42 * 8):
        idx, score = csls_top1(queries, keys, k)
        want_idx, want_score = csls_top1_two_pass(queries, keys, k, tile_bytes)
        assert idx.dtype == want_idx.dtype and (idx == want_idx).all()
        assert score.tobytes() == want_score.tobytes()
    # queries were settled by their candidates, and the rescoring of the
    # blocks with zero rows, ties or near misses ran too
    assert 0 < rescored["rescored"] < rescored["queries"]


@pytest.mark.parametrize("tile_bytes", [42 * 8, 1 << 12, 4 << 20])
def test_induce_dictionary_equals_two_searches(monkeypatch, rescored, tile_bytes):
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", tile_bytes)
    searches = []
    full_search = align_mod.csls_top1

    def counting_search(*args):
        searches.append(args[0].shape[0])
        return full_search(*args)

    monkeypatch.setattr(align_mod, "csls_top1", counting_search)
    rng = np.random.default_rng(43)
    settled = 0
    for queries, keys, k in _csls_cases(rng, wide=tile_bytes > 42 * 8):
        d = keys.shape[1]
        omega = random_orthogonal(rng, d)
        src = EmbeddingTable([f"s{i}" for i in range(len(keys))], keys)
        # the targets are the queries rotated, so omega maps them back
        tgt = EmbeddingTable([f"t{i}" for i in range(len(queries))],
                             queries @ omega)
        for top_n in (10**6, 5):
            want = induce_dictionary_two_calls(src, tgt, omega, k, top_n,
                                               tile_bytes)
            before = len(searches)
            if want:
                got = induce_dictionary(src, tgt, LinearMapper(omega), k, top_n)
                assert got.pairs == want
            else:
                with pytest.raises(AlignmentError):
                    induce_dictionary(src, tgt, LinearMapper(omega), k, top_n)
            settled += len(searches) == before
    # the source -> target matches came from the one sweep in most cases,
    # and the full search in that direction ran where they could not
    assert 0 < len(searches) < settled
    assert 0 < rescored["rescored"] < rescored["queries"]


def test_induce_settles_a_source_match_only_where_no_rounding_changes_it():
    # cosines with many near ties, a search of them from their k largest,
    # and the exact search of the same cosines rounded otherwise: each
    # moved by up to dim u, the most another order of summation can
    dim, k, n_src, n_tgt = 300, 5, 400, 30
    rng = np.random.default_rng(53)
    rounding = dim * np.finfo(np.float64).eps / 2
    cos = np.round(rng.uniform(-1, 1, size=(n_src, n_tgt)), 1)
    cos += rng.uniform(-4, 4, size=cos.shape) * rounding

    def means_of_top_k(c):
        return np.sort(c, axis=1)[:, -k:].mean(axis=1)

    ids = np.argsort(cos, axis=1)[:, -k:]
    vals = np.take_along_axis(cos, ids, axis=1)
    got, _, settled = align_mod._candidate_top1(
        vals, ids, means_of_top_k(cos), means_of_top_k(cos.T), n_tgt,
        align_mod._rounding_slack(dim, k))
    assert 0.2 < settled.mean() < 0.9
    for _ in range(20):
        other = cos + rng.uniform(-1, 1, size=cos.shape) * rounding
        exact = (2 * other - means_of_top_k(other)[:, None]
                 - means_of_top_k(other.T)[None, :]).argmax(axis=1)
        assert (got[settled] == exact[settled]).all()


def test_induce_dictionary_memory_is_the_targets_twice_and_k_per_word(
        monkeypatch):
    budget = 1 << 19
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", budget)
    d, k = 64, 5
    rng = np.random.default_rng(47)

    def peak_beyond_inputs(n_t, n_s):
        keys = rng.normal(size=(max(n_t, n_s), d))
        omega = random_orthogonal(rng, d)
        src = EmbeddingTable([f"s{i}" for i in range(n_s)], keys[:n_s])
        tgt = EmbeddingTable([f"t{i}" for i in range(n_t)], keys[:n_t] @ omega)
        tracemalloc.start()  # the tables exist already and are not counted
        try:
            induce_dictionary(src, tgt, LinearMapper(omega), k, 10**6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 2000
    base = peak_beyond_inputs(n, n)
    per_target = (peak_beyond_inputs(3 * n, n) - base) / (2 * n)
    per_source = (peak_beyond_inputs(n, 3 * n) - base) / (2 * n)
    # a target word: its mapped row and one normalized copy of it, as the
    # two searches held them, k cosines and k ids, and a few floats of r
    # and results; a source word: k cosines, k ids and a few floats, so no
    # copy of the source table is held
    state = k * 8 + k * 8
    assert per_target <= 2 * d * 8 + state + 96
    assert per_source <= state + 96
    assert base <= n * (2 * d * 8 + 2 * state + 2 * 96) + 4 * budget


@pytest.fixture
def forced(monkeypatch):
    """Queries of csls_top1 to leave unsettled beside those the candidates
    cannot settle (a set of query ids to fill), a record of the unsettled
    count of each search, and of each search its unsettled query ids and
    the blocks of each _rescore call."""
    force, counts, searches = set(), [], []
    top1, candidates = align_mod._top1, align_mod._candidate_top1
    rescore = align_mod._rescore
    offset = [0]

    def counting_top1(*args):
        offset[0] = 0
        counts.append(0)
        searches.append({"unsettled": [], "rescored": []})
        return top1(*args)

    def forcing_candidates(vals, *args):
        best, score, settled = candidates(vals, *args)
        lo = offset[0]
        offset[0] += len(vals)
        for i in force:
            if lo <= i < lo + len(vals):
                settled[i - lo] = False
        counts[-1] += int((~settled).sum())
        searches[-1]["unsettled"].extend((lo + np.flatnonzero(~settled)).tolist())
        return best, score, settled

    def recording_rescore(qn, keys, r_q, r_k, key_tiles, blocks, *rest):
        searches[-1]["rescored"].append(list(blocks))
        return rescore(qn, keys, r_q, r_k, key_tiles, blocks, *rest)

    monkeypatch.setattr(align_mod, "_top1", counting_top1)
    monkeypatch.setattr(align_mod, "_candidate_top1", forcing_candidates)
    monkeypatch.setattr(align_mod, "_rescore", recording_rescore)
    return force, counts, searches


def _assert_whole_blocks_rescored(search, nq, nk):
    """The search rescored, in one call, exactly the sweep's query blocks
    that hold an unsettled query, each whole; with none, no call."""
    query_blocks, _ = align_mod._tiling(nq, nk)
    want = [(lo, hi) for lo, hi in query_blocks
            if any(lo <= i < hi for i in search["unsettled"])]
    assert search["rescored"] == ([want] if want else [])


@pytest.mark.parametrize("tile_bytes", [1 << 16, 4 << 20])
@pytest.mark.parametrize("n_forced", [0, 1, 2, 100])
def test_rescoring_the_unsettled_queries_keeps_the_bits_of_the_two_pass_search(
        monkeypatch, forced, tile_bytes, n_forced):
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", tile_bytes)
    force, counts, searches = forced
    rng = np.random.default_rng(61)
    nq, nk, d, k = 1500, 2000, 300, 10
    keys = rng.normal(size=(nk, d))
    near = keys[rng.integers(0, nk, nq)]
    for kind, queries in (("random", rng.normal(size=(nq, d))),
                          ("rotated", near @ random_orthogonal(rng, d)),
                          ("aligned", near + 0.01 * rng.normal(size=(nq, d)))):
        force.clear()
        csls_top1(queries, keys, k)
        natural = counts[-1]
        if kind == "aligned":
            assert natural == 0  # so the counts below are exactly n_forced
            assert searches[-1]["rescored"] == []
        force.update(rng.choice(nq, n_forced, replace=False).tolist())
        idx, score = csls_top1(queries, keys, k)
        assert natural + n_forced >= counts[-1] >= max(natural, n_forced)
        _assert_whole_blocks_rescored(searches[-1], nq, nk)
        want_idx, want_score = csls_top1_two_pass(queries, keys, k, tile_bytes)
        assert (idx == want_idx).all(), kind
        assert score.tobytes() == want_score.tobytes(), kind


@pytest.mark.parametrize("nq", [705, 1409])
def test_a_lone_query_of_a_one_row_block_is_rescored_as_the_sweep_scored_it(
        forced, nq):
    # blocks of 704 queries at the default tiles: the last block holds one
    # query, a matrix-vector product, and the rescoring must keep its bits
    force, counts, searches = forced
    rng = np.random.default_rng(67)
    keys = rng.normal(size=(800, 300))
    queries = rng.normal(size=(nq, 300))
    # the last: place 3 of two 704-row blocks where there are two of them
    for picked in ([nq - 1], [0, nq - 1], [3, min(704 + 3, nq - 2), nq - 1]):
        force.clear()
        force.update(picked)
        idx, score = csls_top1(queries, keys, 10)
        assert counts[-1] >= len(picked)
        _assert_whole_blocks_rescored(searches[-1], nq, len(keys))
        want_idx, want_score = csls_top1_two_pass(queries, keys, 10,
                                                  align_mod.CSLS_TILE_BYTES)
        assert (idx == want_idx).all()
        assert score.tobytes() == want_score.tobytes()


def test_two_blocks_of_one_size_are_rescored_whole_each(forced):
    # three 704-row blocks at the default tiles, all settled by their
    # candidates; a query forced unsettled in the first and in the last, at
    # other places in each: those two blocks are rescored, 1408 rows
    force, counts, searches = forced
    rng = np.random.default_rng(73)
    nq, nk, d, k = 3 * 704, 800, 300, 10
    keys = rng.normal(size=(nk, d))
    queries = keys[rng.integers(0, nk, nq)] + 0.01 * rng.normal(size=(nq, d))
    query_blocks, _ = align_mod._tiling(nq, nk)
    assert query_blocks == [(0, 704), (704, 1408), (1408, 2112)]
    want_idx, want_score = csls_top1_two_pass(queries, keys, k,
                                              align_mod.CSLS_TILE_BYTES)
    idx, score = csls_top1(queries, keys, k)
    assert counts[-1] == 0 and searches[-1]["rescored"] == []
    assert (idx == want_idx).all() and score.tobytes() == want_score.tobytes()
    force.update([3, 1408 + 500])
    idx, score = csls_top1(queries, keys, k)
    assert counts[-1] == 2
    assert searches[-1]["rescored"] == [[(0, 704), (1408, 2112)]]
    assert (idx == want_idx).all() and score.tobytes() == want_score.tobytes()


def _float32_table(rng, n, d, prefix):
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingTable([f"{prefix}{i}" for i in range(n)],
                          rows.astype(np.float32))


def _widened(table):
    return EmbeddingTable(table.words, table.vectors.astype(np.float64),
                          table.language)


def _traced_peak(fn):
    tracemalloc.start()  # what exists already is not counted
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Float32 tables of 6000 x 64: a float64 copy of one is 3 MB, twice the
# table, and the cosine tiles are kept small beside it.
F32_ROWS, F32_DIM, F32_TILE_BYTES = 6000, 64, 1 << 17


def _search_memory(n_queries, k):
    """The most a CSLS search of n_queries unit float64 queries against a
    float32 table may hold: the queries, k cosines and k ids and a few
    floats a query, a float a key, and a few tiles. The queries and a
    float64 copy of the table would pass it."""
    queries = n_queries * F32_DIM * 8
    bound = (queries + n_queries * (16 * k + 96) + F32_ROWS * 8
             + 6 * F32_TILE_BYTES)
    assert bound < queries + F32_ROWS * F32_DIM * 8
    return bound


@pytest.fixture
def f32_tables(monkeypatch):
    monkeypatch.setattr(align_mod, "CSLS_TILE_BYTES", F32_TILE_BYTES)
    rng = np.random.default_rng(71)
    omega = random_orthogonal(rng, F32_DIM)
    src = _float32_table(rng, F32_ROWS, F32_DIM, "s")
    tgt = EmbeddingTable([f"t{i}" for i in range(F32_ROWS)],
                         (src.vectors @ omega.astype(np.float32))
                         .astype(np.float32))
    return src, tgt, LinearMapper(omega)


def test_csls_top1_widens_float32_keys_a_tile_at_a_time(f32_tables):
    src, tgt, mapper = f32_tables
    queries = tgt.vectors[:500] @ mapper.w.T
    (idx, score), peak = _traced_peak(lambda: csls_top1(queries, src.vectors, 10))
    assert peak <= _search_memory(len(queries), 10)
    want_idx, want_score = csls_top1(queries, _widened(src).vectors, 10)
    assert (idx == want_idx).all() and score.tobytes() == want_score.tobytes()


@pytest.mark.parametrize("n", [1000, 5000])
def test_criterion_maps_float32_rows_a_block_at_a_time(f32_tables, n):
    src, tgt, mapper = f32_tables
    got, peak = _traced_peak(
        lambda: unsupervised_criterion(src, tgt, mapper, n, 10))
    # the unit queries are mapped and normalized in place, in one array: a
    # second copy of 5000 of them would pass the bound
    assert peak <= _search_memory(n, 10)
    if n <= 1024:  # one block: the bits of the float64 table's one product
        assert got == unsupervised_criterion(_widened(src), _widened(tgt),
                                             mapper, n, 10)


def test_induce_dictionary_holds_one_float64_copy_of_its_targets(f32_tables):
    src, tgt, mapper = f32_tables
    top_n, k = 1000, 5
    got, peak = _traced_peak(
        lambda: induce_dictionary(src, tgt, mapper, k, top_n))
    # beside the search of the unit mapped targets, k cosines and ids and
    # a few floats a source word
    assert peak <= _search_memory(top_n, k) + top_n * (16 * k + 96)
    assert got.pairs == induce_dictionary(_widened(src), _widened(tgt), mapper,
                                          k, top_n).pairs


def test_refine_widens_the_dictionary_rows_without_float32_copies(
        monkeypatch, f32_tables):
    src, tgt, mapper = f32_tables
    seen = {}
    induce, solve = align_mod.induce_dictionary, align_mod.procrustes

    def marking_induce(*args):
        dico = induce(*args)
        tracemalloc.reset_peak()  # from here: the rows and procrustes
        seen["pairs"], seen["before"] = len(dico), tracemalloc.get_traced_memory()[0]
        return dico

    def measuring_procrustes(x_dict, y_dict, direction):
        seen["dtypes"] = x_dict.dtype, y_dict.dtype
        result = solve(x_dict, y_dict, direction)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(align_mod, "induce_dictionary", marking_induce)
    monkeypatch.setattr(align_mod, "procrustes", measuring_procrustes)
    tracemalloc.start()
    try:
        refine(src, tgt, mapper, 1, k=5, top_n=3000, criterion_sample_n=500)
    finally:
        tracemalloc.stop()
    p, d = seen["pairs"], F32_DIM
    assert p > 2000 and seen["dtypes"] == (np.float64, np.float64)
    # both sides in float64, their index lists, one block of rows as it is
    # gathered, and the d x d products of procrustes; float32 copies of the
    # two sides beside them would add p * d * 8 bytes more
    allowance = 2 * p * 40 + align_mod.BLOCK_ROWS * d * 4 + 16 * d * d * 8
    assert allowance < p * d * 8
    assert seen["peak"] - seen["before"] <= 2 * p * d * 8 + allowance


def test_induce_identity_on_exact_rotation():
    src, tgt, omega = synthetic_pair(1, n=40, d=8)
    mapper = LinearMapper(omega)  # exact recovery: W y = x
    dico = induce_dictionary(src, tgt, mapper, k=5, top_n=40)
    assert dico.pairs == [(i, i) for i in range(40)]


def test_induce_mutual_filter_excludes_one_directional():
    # two targets share the same nearest source: only one can be mutual
    src = EmbeddingTable(["s0", "s1"], [[1.0, 0.0], [-1.0, 0.05]])
    tgt = EmbeddingTable(["t0", "t1"], [[1.0, 0.0], [0.995, 0.1]])
    dico = induce_dictionary(src, tgt, LinearMapper(np.eye(2)), k=1, top_n=2)
    fwd, _ = csls_top1(tgt.vectors, src.vectors, 1)
    assert (fwd == 0).all()  # both targets match s0
    assert len(dico) == 1  # but only the mutual pair survives
    assert dico.pairs[0][1] == 0


def test_induce_noisy_rotation_mostly_correct():
    src, tgt, omega = synthetic_pair(2, n=300, d=16, noise=0.05)
    dico = induce_dictionary(src, tgt, LinearMapper(omega), k=10, top_n=300)
    correct = sum(1 for t, s in dico.pairs if t == s)
    assert correct / 300 >= 0.8


def test_procrustes_self_alignment():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(50, 6))
    mapper = procrustes(x, x)
    np.testing.assert_allclose(mapper.w, np.eye(6), atol=1e-9)


def test_procrustes_rotation_recovery():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(200, 16))
    omega = random_orthogonal(rng, 16)
    y = x @ omega
    mapper = procrustes(x, y)
    mapped = y @ mapper.w.T
    assert np.abs(mapped - x).max() < 1e-6
    assert mapper.orthogonality_error() < 1e-9


def test_procrustes_is_optimal_among_orthogonal():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(30, 5))
    y = x @ random_orthogonal(rng, 5) + 0.1 * rng.normal(size=(30, 5))
    mapper = procrustes(x, y)
    best = ((y @ mapper.w.T - x) ** 2).sum()
    for _ in range(100):
        w_rand = random_orthogonal(rng, 5)
        assert best <= ((y @ w_rand.T - x) ** 2).sum() + 1e-9


def test_procrustes_warns_on_rank_deficiency():
    x = np.zeros((10, 4))
    y = np.zeros((10, 4))
    with pytest.warns(UserWarning):
        procrustes(x, y)


def test_refine_stable_at_perfect_mapper():
    src, tgt, omega = synthetic_pair(3, n=60, d=8)
    history = []
    mapper = refine(src, tgt, LinearMapper(omega), iterations=3, k=5,
                    top_n=60, criterion_sample_n=60, log=history.append)
    assert np.abs(mapper.w - omega).max() < 1e-6
    crits = [c for _, c, _ in history]
    assert all(b >= a - 1e-9 for a, b in zip(crits, crits[1:]))


def test_refine_single_iteration_is_induce_plus_procrustes():
    src, tgt, omega = synthetic_pair(4, n=50, d=6, noise=0.03)
    w0 = LinearMapper(omega + 0.05)
    got = refine(src, tgt, w0, iterations=1, k=5, top_n=50,
                 criterion_sample_n=50)
    dico = induce_dictionary(src, tgt, w0, k=5, top_n=50)
    t_idx = [t for t, _ in dico.pairs]
    s_idx = [s for _, s in dico.pairs]
    direct = procrustes(src.vectors[s_idx], tgt.vectors[t_idx])
    np.testing.assert_allclose(got.w, direct.w, atol=1e-12)


def test_refine_orthogonality_invariant():
    src, tgt, _ = synthetic_pair(5, n=80, d=8, noise=0.05)
    history = []
    mapper = refine(src, tgt, LinearMapper(np.eye(8)), iterations=4, k=5,
                    top_n=80, criterion_sample_n=80, log=history.append)
    for _ in history:
        pass
    assert mapper.orthogonality_error() < 1e-6


def test_unsupervised_criterion_prefers_recovered_mapper():
    src, tgt, omega = synthetic_pair(6, n=100, d=8, noise=0.01)
    rng = np.random.default_rng(17)
    good = unsupervised_criterion(src, tgt, LinearMapper(omega), 100, 5)
    bad = unsupervised_criterion(
        src, tgt, LinearMapper(random_orthogonal(rng, 8)), 100, 5
    )
    assert good > bad
    again = unsupervised_criterion(src, tgt, LinearMapper(omega), 100, 5)
    assert good == again  # deterministic


def test_adversarial_then_refine_recovers_rotation():
    # known-rotation oracle: adversarial alone reaches P@1 >= 0.7 (median of
    # 5 seeds, noiseless); refinement pushes past 0.9
    cfg = AlignConfig(
        w_steps=10000, disc_steps=5, batch_size=64, disc_hidden=128,
        vocab_cap=300, csls_k=10, dict_top_n=300, criterion_sample_n=300,
    )
    raw = []
    refined = []
    for seed in range(5):
        src, tgt, _ = synthetic_pair(100 + seed, n=300, d=16)
        mapper = adversarial_train(src, tgt, Rng(seed), cfg)
        raw.append(precision_at_1(src, tgt, mapper))
        better = refine(src, tgt, mapper, iterations=5, k=10, top_n=300,
                        criterion_sample_n=300)
        refined.append(precision_at_1(src, tgt, better))
    assert np.median(raw) >= 0.7, f"adversarial P@1 {raw}"
    assert np.median(refined) >= 0.9, f"refined P@1 {refined}"


def test_dictionary_collapse_returns_best_so_far(monkeypatch):
    src, tgt, _ = synthetic_pair(7, n=30, d=8)
    w0 = LinearMapper(np.eye(8))

    def exploding_induce(*args, **kwargs):
        raise AlignmentError("empty")

    monkeypatch.setattr(align_mod, "induce_dictionary", exploding_induce)
    got = align_mod.refine(src, tgt, w0, iterations=3, k=5, top_n=30)
    assert got is w0


def test_align_config_range_checks():
    AlignConfig(w_steps=0, disc_steps=0, batch_size=1, disc_hidden=1,
                input_dropout=0.0, vocab_cap=1, csls_k=1, dict_top_n=1,
                criterion_sample_n=1, restarts=1)
    for field, value in (("w_steps", -1), ("batch_size", 0),
                         ("disc_hidden", 0), ("input_dropout", 1.0),
                         ("input_dropout", -0.1), ("vocab_cap", 0),
                         ("csls_k", 0), ("criterion_sample_n", 0),
                         ("dict_top_n", 0), ("dict_top_n", -1),
                         ("disc_steps", -1), ("restarts", 0)):
        with pytest.raises(UsageError, match=f"align.{field} must be"):
            AlignConfig(**{field: value})
