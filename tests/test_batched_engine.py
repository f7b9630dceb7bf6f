"""The batched engine of zrxner.tagger against the per-sentence reference in
oracles.py: loss and every gradient tensor within 1e-10, Viterbi paths
identical (ties included), and CRF statistics against enumeration."""

import itertools
import tracemalloc

import numpy as np
import pytest

import zrxner.tagger as tagger
from zrxner.corpus import IOBES
from zrxner.embeddings import EmbeddingTable
from zrxner.errors import UsageError
from zrxner.numeric import Rng, dropout_mask
from zrxner.tagger import (
    Tagger,
    TaggerConfig,
    backward_pass,
    crf_nll_grads,
    predict,
    viterbi,
)

import oracles
from test_tagger import TAGS, tiny_model, tiny_table

TOL = 1e-10

# ragged: a 1-token sentence, a token repeated inside a sentence, tokens
# shared across sentences, an out-of-table token ("hh") and one spelled with
# a character outside the character vocabulary ("az")
RAGGED = [
    (["aa", "ba", "ab", "aa"], ["B-PER", "I-PER", "O", "B-PER"]),
    (["bb"], ["O"]),
    (["ca", "cb", "ba", "aa", "hh", "cb"], ["O", "B-PER", "I-PER", "O", "O", "O"]),
    (["az", "aa"], ["B-PER", "O"]),
    (["cb", "bb", "ab"], ["O", "O", "B-PER"]),
]


# the shapes that the engine's per-step offsets into its blocks must get
# right: one step of one element, every sequence running to the last step,
# and one sequence running alone for most of the steps
BATCHES = {
    "ragged": RAGGED,
    "one": [(["bb"], ["O"])],
    "equal": [
        (["aa", "ba", "ab"], ["B-PER", "I-PER", "O"]),
        (["cb", "hh", "bb"], ["O", "O", "B-PER"]),
        (["az", "aa", "aa"], ["B-PER", "I-PER", "I-PER"]),
    ],
    "long": [
        (["bb", "ab"], ["O", "B-PER"]),
        (["ca", "cb", "ba", "aa", "hh", "cb", "ab", "bb", "az"],
         ["O", "B-PER", "I-PER", "O", "O", "O", "B-PER", "O", "B-PER"]),
        (["aa"], ["B-PER"]),
        (["az", "ba"], ["O", "O"]),
    ],
}


def _cases(*flags):
    """pytest params over every combination of the boolean flags and every
    batch; the RAGGED cases are named by the flags alone, so their ids stay
    those of the flags-only parametrization."""
    return [pytest.param(*combo, name,
                         id="-".join(map(str, combo))
                         + ("" if name == "ragged" else f"-{name}"))
            for name in BATCHES
            for combo in itertools.product(*flags)]


def _masks(model, batch, seed=13):
    rng = Rng(seed)
    return [dropout_mask(rng, (len(toks), model.cfg.input_dim), 0.5)
            for toks, _ in batch]


@pytest.mark.parametrize("tied, use_char, with_dropout, name",
                         _cases([False, True], [True, False], [False, True]))
def test_loss_and_gradients_match_per_sentence_oracle(tied, use_char,
                                                      with_dropout, name):
    items = BATCHES[name]
    model = tiny_model(tied=tied, use_char=use_char, seed=5)
    table = tiny_table()
    masks = _masks(model, items) if with_dropout else None
    batch = [model.prepare(table, *item) for item in items]
    loss, grads = backward_pass(model, "src", batch, masks)
    ref_loss, ref_grads = oracles.reference_backward_pass(
        model, "src", table, items, masks
    )
    assert abs(loss - ref_loss) <= TOL
    assert list(grads) == list(ref_grads)
    assert set(grads) == set(model.named_parameters("src"))
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert np.abs(grads[name] - ref).max() <= TOL, name


@pytest.mark.parametrize("tied", [False, True])
def test_batch_gradient_is_the_mean_of_single_sentence_gradients(tied):
    model = tiny_model(tied=tied, seed=2)
    table = tiny_table()
    batch = [model.prepare(table, *item) for item in RAGGED]
    loss, grads = backward_pass(model, "src", batch)
    singles = [backward_pass(model, "src", [prep]) for prep in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) <= TOL
    for name, g in grads.items():
        mean = sum(s[1][name] for s in singles) / len(RAGGED)
        assert np.abs(g - mean).max() <= TOL, name


@pytest.mark.parametrize("tied", [False, True])
def test_char_encoder_matches_per_token_oracle(tied):
    model = tiny_model(tied=tied, seed=4)
    enc = model.encoders["src"].char
    tokens = ["a", "abc", "hgfedcba", "ab", "abc", "ba", "zz"]
    out, _ = tagger.bilstm_final(
        enc, model.char_emb, [model.char_ids(t) for t in tokens]
    )
    for row, token in zip(out, tokens):
        ref = oracles.encode_token_chars(model, "src", token)
        assert np.abs(row - ref).max() <= TOL, token


@pytest.mark.parametrize("tied", [False, True])
def test_word_encoder_matches_per_sentence_oracle(tied):
    model = tiny_model(tied=tied, seed=6)
    rng = np.random.default_rng(8)
    lengths = [3, 1, 7, 2, 7]
    x = rng.normal(size=(sum(lengths), model.cfg.input_dim))
    states, _ = tagger.bilstm_states(model.encoders["src"].word, x, lengths)
    lo = 0
    for m in lengths:
        ref = oracles.word_context(model, "src", x[lo : lo + m])
        assert np.abs(states[lo : lo + m] - ref).max() <= TOL
        lo += m


def _ragged_scores(rng, lengths, k, tie=False):
    scores = np.zeros((len(lengths), max(lengths), k))
    for r, m in enumerate(lengths):
        scores[r, :m] = rng.normal(size=(m, k)) * 2
        if tie:  # duplicate columns: every path has a tied twin
            scores[r, :m, 1] = scores[r, :m, 0]
    return scores


def test_crf_statistics_match_enumeration_on_ragged_batches():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        lengths = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(1, 5)))]
        scores = _ragged_scores(rng, lengths, k)
        trans = rng.normal(size=(k + 2, k + 2)) * 2
        paths = [[int(v) for v in rng.integers(0, k, size=m)] for m in lengths]
        nll, dscores, dtrans = crf_nll_grads(scores, trans, paths, lengths)
        want_dtrans = np.zeros_like(trans)
        for r, m in enumerate(lengths):
            log_z, _, _, marg = oracles.crf_enumerate(scores[r, :m], trans)
            gold = oracles.crf_path_score(scores[r, :m], trans, paths[r])
            assert abs(nll[r] - (log_z - gold)) < 1e-8
            onehot = np.eye(k)[paths[r]]
            np.testing.assert_allclose(dscores[r, :m], marg - onehot, atol=1e-8)
            assert not dscores[r, m:].any()  # padding gets no gradient
            _, _, ref_dtrans = oracles.reference_crf_nll_grads(
                scores[r, :m], trans, paths[r]
            )
            want_dtrans += ref_dtrans
        np.testing.assert_allclose(dtrans, want_dtrans, atol=1e-8)


@pytest.mark.parametrize("tie", [False, True])
def test_viterbi_paths_identical_to_per_sentence_oracle(tie):
    rng = np.random.default_rng(22 + tie)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        lengths = [int(v) for v in rng.integers(1, 9, size=int(rng.integers(1, 7)))]
        scores = _ragged_scores(rng, lengths, k, tie)
        trans = rng.normal(size=(k + 2, k + 2)) * 2
        if tie:
            trans[:, 1] = trans[:, 0]
            trans[1, :] = trans[0, :]
        paths = viterbi(scores, trans, lengths)
        for r, m in enumerate(lengths):
            assert paths[r] == oracles.reference_viterbi(scores[r, :m], trans)
            if tie:
                assert 1 not in paths[r]  # the lower index of each tie wins


def test_viterbi_all_ties_pick_lowest_index_in_every_sentence():
    lengths = [3, 1, 2]
    paths = viterbi(np.zeros((3, 3, 4)), np.zeros((6, 6)), lengths)
    assert paths == [[0, 0, 0], [0], [0, 0]]


@pytest.mark.parametrize("tied, use_char, name",
                         _cases([False, True], [True, False]))
def test_predict_matches_per_sentence_oracle_across_chunks(tied, use_char,
                                                          name, monkeypatch):
    monkeypatch.setattr(tagger, "EVAL_TOKENS", 5)  # several chunks
    model = tiny_model(tied=tied, use_char=use_char, seed=9)
    model.head["trans"][:] = np.random.default_rng(3).normal(
        size=model.head["trans"].shape
    )
    table = tiny_table()
    sentences = [toks for toks, _ in BATCHES[name]] * 2
    got = predict(model, "src", table, sentences)
    want = [oracles.reference_predict(model, "src", table, s) for s in sentences]
    assert got == want
    assert all(t in TAGS for tags in got for t in tags)


def test_predict_empty_input_flat_token_list_and_empty_sentence():
    model = tiny_model()
    assert predict(model, "src", tiny_table(), []) == []
    with pytest.raises(UsageError):
        predict(model, "src", tiny_table(), ["aa", "bb"])
    with pytest.raises(UsageError, match="empty sentence"):
        predict(model, "src", tiny_table(), [["aa"], []])


# Bytes that one backward pass may hold at its peak per token of its batch,
# at the paper's dimensions. 42.4 KB were traced on this batch when the
# bound was set, and 51.6 KB when BPTT kept a list of per-step arrays and
# concatenated it; an engine that holds more per step fails here.
BACKWARD_BYTES_PER_TOKEN = 46_000


def test_backward_pass_traced_peak_per_token_at_paper_dims():
    letters = "abcdefghijklmnopqrstuvwxyz"
    tags = ["O"] + [f"{p}-{e}" for e in ("PER", "LOC", "ORG", "MISC")
                    for p in "BIES"]
    cfg = TaggerConfig(word_dim=300, tags=tags, scheme=IOBES)
    chars = {"<pad>": 0, "<unk>": 1, **{c: i + 2 for i, c in enumerate(letters)}}
    model = Tagger(cfg, chars, Rng(0))
    rng = np.random.default_rng(0)
    words = list(dict.fromkeys(
        "".join(rng.choice(list(letters), size=int(rng.integers(2, 11))))
        for _ in range(500)))[:400]
    table = EmbeddingTable(words, rng.normal(size=(400, 300)).astype(np.float32))
    # CoNLL-like lengths: median 14, one sentence past 40
    lengths = [14, 3, 22, 9, 14, 41, 1, 17, 14, 6, 28, 12, 14, 8, 19, 11]
    batch = [model.prepare(table, [words[i] for i in rng.integers(0, 400, m)],
                           [tags[i] for i in rng.integers(0, 17, m)])
             for m in lengths]
    mask_rng = Rng(1)
    masks = [dropout_mask(mask_rng, (m, cfg.input_dim), cfg.dropout)
             for m in lengths]
    tracemalloc.start()
    try:
        backward_pass(model, "src", batch, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BACKWARD_BYTES_PER_TOKEN * sum(lengths), peak / sum(lengths)
