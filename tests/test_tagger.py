import numpy as np
import pytest

from zrxner.corpus import IOB1, IOB2, IOBES, scan_entities
from zrxner.embeddings import EmbeddingTable
from zrxner.numeric import Rng, clipped_sgd_step, dropout_mask
from zrxner.tagger import (
    MASK_VALUE,
    Tagger,
    TaggerConfig,
    backward_pass,
    batch_forward,
    predict,
    transition_mask,
    viterbi,
)

from oracles import (
    batch_nll,
    direction,
    embed_sentence,
    emission_scores,
    encode_token_chars,
    word_context,
)

TAGS = ["O", "B-PER", "I-PER"]
CHARS = {"<pad>": 0, "<unk>": 1}
for i, ch in enumerate("abcdefgh"):
    CHARS[ch] = i + 2


def tiny_model(tied=False, use_char=True, seed=0, tags=TAGS, word_dim=5):
    cfg = TaggerConfig(
        word_dim=word_dim, tags=tags, scheme=IOB2, char_dim=4, char_hidden=4,
        word_hidden=6, head_hidden=4, use_char=use_char, tied=tied,
        dropout=0.5,
    )
    return Tagger(cfg, CHARS, Rng(seed))


def tiny_table(seed=1, dim=5):
    rng = np.random.default_rng(seed)
    words = ["aa", "ab", "ba", "bb", "ca", "cb"]
    return EmbeddingTable(words, rng.normal(size=(len(words), dim)))


def scalar_lstm_states(cell, xs):
    """Independent scalar unroll with the textbook gate formulas."""
    hdim = cell.hidden_dim
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    out = []
    for x in xs:
        z = cell.w @ x + cell.u @ h + cell.b
        i = 1.0 / (1.0 + np.exp(-z[:hdim]))
        f = 1.0 / (1.0 + np.exp(-z[hdim : 2 * hdim]))
        o = 1.0 / (1.0 + np.exp(-z[2 * hdim : 3 * hdim]))
        g = np.tanh(z[3 * hdim :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h.copy())
    return np.array(out)


def test_char_encoding_shape():
    model = tiny_model()
    assert encode_token_chars(model, "src", "abc").shape == (8,)


def test_char_encoding_tied_palindrome():
    model = tiny_model(tied=True)
    out = encode_token_chars(model, "src", "a")
    np.testing.assert_allclose(out[:4], out[4:], atol=1e-12)


def test_char_encoding_matches_scalar_unroll():
    model = tiny_model()
    enc = model.encoders["src"].char
    token = "ab"
    xs = model.char_emb[model.char_ids(token)]
    fwd = scalar_lstm_states(direction(enc, 0), xs)[-1]
    bwd = scalar_lstm_states(direction(enc, 1), xs[::-1])[-1]
    got = encode_token_chars(model, "src", token)
    np.testing.assert_allclose(got, np.concatenate([fwd, bwd]), atol=1e-12)


def test_embed_row_width_default_dims():
    cfg = TaggerConfig(word_dim=300, tags=TAGS, char_dim=25, char_hidden=25,
                       word_hidden=100, head_hidden=100)
    model = Tagger(cfg, CHARS, Rng(0))
    rng = np.random.default_rng(2)
    table = EmbeddingTable(["aa", "ab"], rng.normal(size=(2, 300)))
    x = embed_sentence(model, "src", table, ["aa", "ab", "aa"])
    assert x.shape == (3, 350)


def test_embed_eval_mode_is_dropout_free():
    model = tiny_model()
    table = tiny_table()
    a = embed_sentence(model, "src", table, ["aa", "bb", "zz"], train=False)
    b = embed_sentence(model, "src", table, ["aa", "bb", "zz"], train=False)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a[0, 8:], table.vectors[table.row("aa")],
                               atol=1e-12)
    assert not a[2, 8:].any()  # a word outside the table reads all zeros


def test_embed_training_dropout_reproducible_and_half():
    model = tiny_model()
    table = tiny_table()
    tokens = ["aa"] * 100  # 100 x 13 = 1300 entries per draw
    draws = []
    for _ in range(8):
        draws.append(
            embed_sentence(model, "src", table, tokens, train=True, rng=Rng(7))
        )
    np.testing.assert_array_equal(draws[0], draws[1])  # same seed, same mask
    kept = 0
    total = 0
    for rep in range(8):
        x = embed_sentence(
            model, "src", table, tokens, train=True, rng=Rng(100 + rep)
        )
        kept += (x != 0).sum()
        total += x.size
    assert abs(kept / total - 0.5) < 0.02


def test_word_context_shapes():
    model = tiny_model()
    table = tiny_table()
    x = embed_sentence(model, "src", table, ["aa"])
    assert word_context(model, "src", x).shape == (1, 12)


def test_word_context_tied_reversal_swaps_halves():
    model = tiny_model(tied=True)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, model.cfg.input_dim))
    u = word_context(model, "src", x)
    u_rev = word_context(model, "src", x[::-1])
    np.testing.assert_allclose(u_rev[:, :6], u[::-1, 6:], atol=1e-12)
    np.testing.assert_allclose(u_rev[:, 6:], u[::-1, :6], atol=1e-12)


def test_word_context_matches_scalar_unroll():
    model = tiny_model()
    enc = model.encoders["src"].word
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, model.cfg.input_dim))
    fwd = scalar_lstm_states(direction(enc, 0), x)
    bwd = scalar_lstm_states(direction(enc, 1), x[::-1])[::-1]
    np.testing.assert_allclose(
        word_context(model, "src", x), np.hstack([fwd, bwd]), atol=1e-12
    )


def test_emission_scores_zero_v():
    model = tiny_model()
    model.head["tag_w"][:] = 0.0
    u = np.random.default_rng(5).normal(size=(4, 12))
    np.testing.assert_array_equal(emission_scores(model, u), np.zeros((4, 3)))


def test_emission_scores_matches_direct_arithmetic():
    model = tiny_model()
    rng = np.random.default_rng(6)
    u = rng.normal(size=(3, 12))
    expected = np.tanh(u @ model.head["dense_w"].T + model.head["dense_b"]) @ model.head["tag_w"].T
    np.testing.assert_allclose(emission_scores(model, u), expected, atol=1e-12)


def test_predict_zero_model_lowest_tag():
    model = tiny_model()
    model.head["tag_w"][:] = 0.0
    model.head["trans"][:] = 0.0
    table = tiny_table()
    assert predict(model, "src", table, [["aa"]]) == [["O"]]


def test_predict_deterministic_and_composed():
    model = tiny_model(seed=3)
    table = tiny_table()
    tokens = ["aa", "ba", "cb", "ab"]
    once = predict(model, "src", table, [tokens])[0]
    again = predict(model, "src", table, [tokens])[0]
    assert once == again
    x = embed_sentence(model, "src", table, tokens)
    u = word_context(model, "src", x)
    scores = emission_scores(model, u)
    path = viterbi(scores[None], model.effective_trans(), [len(tokens)])[0]
    assert once == [TAGS[i] for i in path]


def test_tied_halves_recurrent_parameter_counts():
    untied = tiny_model(tied=False)
    tied = tiny_model(tied=True)
    cu = untied.parameter_counts()
    ct = tied.parameter_counts()
    assert ct["word_level"] * 2 == cu["word_level"]
    assert ct["char_level"] * 2 == cu["char_level"]
    assert ct["head"] == cu["head"]
    assert ct["char_table"] == cu["char_table"]


def test_nochar_variant_has_no_char_tensors():
    model = tiny_model(use_char=False)
    names = model.named_parameters("src")
    assert not any(".char." in n or n == "char_emb" for n in names)
    table = tiny_table()
    x = embed_sentence(model, "src", table, ["aa", "bb"])
    assert x.shape == (2, 5)


def test_head_and_char_table_shared_across_encoders():
    model = tiny_model()
    model.add_target_encoder(Rng(9))
    src = model.named_parameters("src")
    tgt = model.named_parameters("tgt")
    assert src["head.tag_w"] is tgt["head.tag_w"]
    assert src["char_emb"] is tgt["char_emb"]
    src["head.tag_w"][0, 0] = 123.0
    assert tgt["head.tag_w"][0, 0] == 123.0  # one storage, two views


def test_target_encoder_initialized_as_copy():
    model = tiny_model()
    model.add_target_encoder(Rng(9))
    src = model.named_parameters("src")
    tgt = model.named_parameters("tgt")
    np.testing.assert_array_equal(
        src["enc.src.word.f.w"], tgt["enc.tgt.word.f.w"]
    )
    assert not np.shares_memory(src["enc.src.word.f.w"],
                                tgt["enc.tgt.word.f.w"])
    tgt["enc.tgt.word.f.w"][0, 0] += 1.0
    assert src["enc.src.word.f.w"][0, 0] != tgt["enc.tgt.word.f.w"][0, 0]


SCHEME_TAGS = {
    IOB1: ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"],
    IOB2: ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"],
    IOBES: ["O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "I-LOC",
            "E-LOC", "S-LOC"],
}


@pytest.mark.parametrize("scheme", [IOB1, IOB2, IOBES])
def test_constrained_decoding_produces_valid_sequences(scheme):
    tags = SCHEME_TAGS[scheme]
    mask = transition_mask(tags, scheme)
    rng = np.random.default_rng(11)
    for _ in range(50):
        scores = rng.normal(size=(int(rng.integers(1, 8)), len(tags))) * 3
        path = viterbi(scores[None], mask, [len(scores)])[0]
        decoded = [tags[i] for i in path]
        _, repairs = scan_entities(decoded, scheme)
        assert repairs == 0, decoded


@pytest.mark.parametrize("scheme", [IOB1, IOB2, IOBES])
def test_mask_forbids_exactly_the_transitions_the_scanner_repairs(scheme):
    # A transition is forbidden iff every sentence through it, with up to
    # one label of context on each side, is repaired; BOS and EOS are the
    # sentence's ends.
    tags = SCHEME_TAGS[scheme]
    k = len(tags)
    bos, eos = k, k + 1
    mask = transition_mask(tags, scheme)
    contexts = [[]] + [[t] for t in tags]
    for i in [*range(k), bos]:
        for j in [*range(k), eos]:
            middle = tags[i:i + 1] + tags[j:j + 1]
            repairs = min(
                scan_entities(before + middle + after, scheme)[1]
                for before in (contexts if i < k else [[]])
                for after in (contexts if j < k else [[]])
            )
            assert mask[i, j] == (MASK_VALUE if repairs else 0.0), (i, j)
    assert not mask[eos].any() and not mask[:, bos].any()


def test_symmetric_stationary_point_has_zero_gradient():
    model = tiny_model()
    model.head["tag_w"][:] = 0.0
    model.head["trans"][:] = 0.0
    table = tiny_table()
    batch = [(["aa"], [t]) for t in TAGS]  # same token, each gold tag once
    loss, grads = backward_pass(
        model, "src", [model.prepare(table, *item) for item in batch])
    assert loss == pytest.approx(np.log(3), abs=1e-12)
    total = sum(float(np.abs(g).sum()) for g in grads.values())
    assert total < 1e-8


GRAD_BATCH = [
    (["aa", "ba", "ab"], ["B-PER", "I-PER", "O"]),
    (["bb", "aa"], ["O", "B-PER"]),
    (["ca", "cb", "ba", "aa"], ["O", "B-PER", "I-PER", "O"]),
]


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("with_dropout", [False, True])
def test_full_model_gradients_match_finite_differences(tied, with_dropout):
    from oracles import finite_difference_grads

    model = tiny_model(tied=tied, seed=5)
    table = tiny_table()
    masks = None
    if with_dropout:
        rng = Rng(13)
        masks = [
            dropout_mask(rng, (len(toks), model.cfg.input_dim), 0.5)
            for toks, _ in GRAD_BATCH
        ]
    batch = [model.prepare(table, *item) for item in GRAD_BATCH]
    loss, grads = backward_pass(model, "src", batch, masks=masks)
    assert loss > 0
    params = model.named_parameters("src")
    fd = finite_difference_grads(
        lambda: batch_nll(model, "src", table, GRAD_BATCH, masks=masks),
        params,
        h=1e-5,
    )
    assert set(grads) == set(params)
    for name in params:
        np.testing.assert_allclose(
            grads[name], fd[name], rtol=1e-4, atol=1e-7, err_msg=name
        )


# The parameter contract: names, order and shapes of every tensor, as
# checkpoints store them, and the key order of the gradients, in which
# global_grad_norm sums (so the clip scale's bits depend on it). Keyed by
# (tied, use_char, languages); the gradients are those of the last language.
PARAMETERS = {
    (False, True, 1): """char_emb:10x4
        enc.src.word.f.w:24x13 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.word.b.w:24x13 enc.src.word.b.u:24x6 enc.src.word.b.b:24
        enc.src.char.f.w:16x4 enc.src.char.f.u:16x4 enc.src.char.f.b:16
        enc.src.char.b.w:16x4 enc.src.char.b.u:16x4 enc.src.char.b.b:16
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5""",
    (False, True, 2): """char_emb:10x4
        enc.src.word.f.w:24x13 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.word.b.w:24x13 enc.src.word.b.u:24x6 enc.src.word.b.b:24
        enc.src.char.f.w:16x4 enc.src.char.f.u:16x4 enc.src.char.f.b:16
        enc.src.char.b.w:16x4 enc.src.char.b.u:16x4 enc.src.char.b.b:16
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5
        enc.tgt.word.f.w:24x13 enc.tgt.word.f.u:24x6 enc.tgt.word.f.b:24
        enc.tgt.word.b.w:24x13 enc.tgt.word.b.u:24x6 enc.tgt.word.b.b:24
        enc.tgt.char.f.w:16x4 enc.tgt.char.f.u:16x4 enc.tgt.char.f.b:16
        enc.tgt.char.b.w:16x4 enc.tgt.char.b.u:16x4 enc.tgt.char.b.b:16""",
    (False, False, 1): """
        enc.src.word.f.w:24x5 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.word.b.w:24x5 enc.src.word.b.u:24x6 enc.src.word.b.b:24
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5""",
    (False, False, 2): """
        enc.src.word.f.w:24x5 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.word.b.w:24x5 enc.src.word.b.u:24x6 enc.src.word.b.b:24
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5
        enc.tgt.word.f.w:24x5 enc.tgt.word.f.u:24x6 enc.tgt.word.f.b:24
        enc.tgt.word.b.w:24x5 enc.tgt.word.b.u:24x6 enc.tgt.word.b.b:24""",
    (True, True, 1): """char_emb:10x4
        enc.src.word.f.w:24x13 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.char.f.w:16x4 enc.src.char.f.u:16x4 enc.src.char.f.b:16
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5""",
    (True, True, 2): """char_emb:10x4
        enc.src.word.f.w:24x13 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        enc.src.char.f.w:16x4 enc.src.char.f.u:16x4 enc.src.char.f.b:16
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5
        enc.tgt.word.f.w:24x13 enc.tgt.word.f.u:24x6 enc.tgt.word.f.b:24
        enc.tgt.char.f.w:16x4 enc.tgt.char.f.u:16x4 enc.tgt.char.f.b:16""",
    (True, False, 1): """
        enc.src.word.f.w:24x5 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5""",
    (True, False, 2): """
        enc.src.word.f.w:24x5 enc.src.word.f.u:24x6 enc.src.word.f.b:24
        head.dense_w:4x12 head.dense_b:4 head.tag_w:3x4 head.trans:5x5
        enc.tgt.word.f.w:24x5 enc.tgt.word.f.u:24x6 enc.tgt.word.f.b:24""",
}
GRADIENTS = {
    (False, True, 1): """head.trans head.tag_w head.dense_w head.dense_b
        enc.src.word.f.w enc.src.word.f.u enc.src.word.f.b
        enc.src.word.b.w enc.src.word.b.u enc.src.word.b.b
        enc.src.char.f.w enc.src.char.f.u enc.src.char.f.b
        enc.src.char.b.w enc.src.char.b.u enc.src.char.b.b char_emb""",
    (False, True, 2): """head.trans head.tag_w head.dense_w head.dense_b
        enc.tgt.word.f.w enc.tgt.word.f.u enc.tgt.word.f.b
        enc.tgt.word.b.w enc.tgt.word.b.u enc.tgt.word.b.b
        enc.tgt.char.f.w enc.tgt.char.f.u enc.tgt.char.f.b
        enc.tgt.char.b.w enc.tgt.char.b.u enc.tgt.char.b.b char_emb""",
    (False, False, 1): """head.trans head.tag_w head.dense_w head.dense_b
        enc.src.word.f.w enc.src.word.f.u enc.src.word.f.b
        enc.src.word.b.w enc.src.word.b.u enc.src.word.b.b""",
    (False, False, 2): """head.trans head.tag_w head.dense_w head.dense_b
        enc.tgt.word.f.w enc.tgt.word.f.u enc.tgt.word.f.b
        enc.tgt.word.b.w enc.tgt.word.b.u enc.tgt.word.b.b""",
    (True, True, 1): """head.trans head.tag_w head.dense_w head.dense_b
        enc.src.word.f.w enc.src.word.f.u enc.src.word.f.b
        enc.src.char.f.w enc.src.char.f.u enc.src.char.f.b char_emb""",
    (True, True, 2): """head.trans head.tag_w head.dense_w head.dense_b
        enc.tgt.word.f.w enc.tgt.word.f.u enc.tgt.word.f.b
        enc.tgt.char.f.w enc.tgt.char.f.u enc.tgt.char.f.b char_emb""",
    (True, False, 1): """head.trans head.tag_w head.dense_w head.dense_b
        enc.src.word.f.w enc.src.word.f.u enc.src.word.f.b""",
    (True, False, 2): """head.trans head.tag_w head.dense_w head.dense_b
        enc.tgt.word.f.w enc.tgt.word.f.u enc.tgt.word.f.b""",
}


def _contract_id(key):
    tied, use_char, languages = key
    return (f"{'tied' if tied else 'untied'}-"
            f"{'char' if use_char else 'nochar'}-{languages}lang")


@pytest.mark.parametrize("key", list(PARAMETERS), ids=_contract_id)
def test_parameter_names_order_and_shapes_are_the_contract(key):
    tied, use_char, languages = key
    model = tiny_model(tied=tied, use_char=use_char)
    if languages == 2:
        model.add_target_encoder(Rng(9))
    lang = list(model.encoders)[-1]
    entries = [e.split(":") for e in PARAMETERS[key].split()]
    expected = [(name, tuple(int(d) for d in shape.split("x")))
                for name, shape in entries]
    params = model.all_parameters()
    assert [(name, arr.shape) for name, arr in params.items()] == expected
    table = tiny_table()
    batch = [model.prepare(table, *item) for item in GRAD_BATCH]
    _, grads = backward_pass(model, lang, batch)
    assert list(grads) == GRADIENTS[key].split()
    for name, g in grads.items():
        assert g.shape == params[name].shape, name
    # every per-direction tensor is a view of its cell of the stacked arrays
    for code, enc in model.encoders.items():
        for level, bi in (("word", enc.word), ("char", enc.char)):
            for d, tag in enumerate("fb"[: len(bi.w) if bi else 0]):
                for tensor in "wub":
                    view = params[f"enc.{code}.{level}.{tag}.{tensor}"]
                    assert np.shares_memory(view, getattr(bi, tensor)[d])
    # so an SGD step on the encoder tensors alone moves the engine's output
    before = batch_forward(model, lang, batch)[0]
    encoder_grads = {n: g for n, g in grads.items() if n.startswith("enc.")}
    clipped_sgd_step(model.named_parameters(lang), encoder_grads, 0.5, 1e9)
    assert not np.array_equal(batch_forward(model, lang, batch)[0], before)
