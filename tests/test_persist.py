import tracemalloc

import numpy as np
import pytest

from zrxner.align import LinearMapper
from zrxner.checkpoint import CHUNK_BYTES, load_checkpoint, save_checkpoint
from zrxner.corpus import IOB2
from zrxner.embeddings import EmbeddingTable, apply_mapper, select_rows
from zrxner.errors import CheckpointError
from zrxner.numeric import Rng
from zrxner.persist import (
    load_mapper,
    load_model,
    save_mapper,
    save_model,
)
from zrxner.tagger import Tagger, predict
from zrxner.trainer import TrainingConfig

CHARS = {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "=": 4}
# line breaks to str.splitlines, but not "\n", which a config line cannot hold
LINE_BREAKS = ["\u2028", "\x85", "\x1c", "\x0b", "\x0c", "\r"]


def test_mapper_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mapper = LinearMapper(rng.normal(size=(6, 6)), "s_to_t")
    path = tmp_path / "m.zrx"
    save_mapper(path, mapper, {"seed": 3})
    again, config = load_mapper(path)
    assert (again.w == mapper.w).all()
    assert again.direction == "s_to_t"
    assert config["seed"] == "3"
    assert config["rng"] == "pcg64"


def test_mapper_kind_check(tmp_path):
    config = TrainingConfig(
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4
    )
    model = Tagger(config.tagger_config(5, ["O", "B-PER"]), CHARS, Rng(0))
    table = EmbeddingTable(["aa", "ab"], np.random.default_rng(1).normal(size=(2, 5)))
    path = tmp_path / "model.zrx"
    save_model(path, model, config, {"src": table})
    with pytest.raises(CheckpointError, match="not a mapper"):
        load_mapper(path)


@pytest.mark.parametrize("variant", ["cross_word", "cross_shared",
                                     "cross_word_nochar"])
def test_model_round_trip_bit_exact(tmp_path, variant):
    config = TrainingConfig(
        variant=variant, scheme=IOB2, char_dim=4, char_hidden=4,
        word_hidden=6, head_hidden=4, seed=5,
    )
    model = Tagger(config.tagger_config(5, ["O", "B-PER", "I-PER"]), CHARS,
                   Rng(5))
    model.add_target_encoder(Rng(6))
    rng = np.random.default_rng(2)
    table_s = EmbeddingTable(["aa", "ab", "ba"], rng.normal(size=(3, 5)), "en")
    table_t = EmbeddingTable(["b=a", "bb"], rng.normal(size=(2, 5)), "es")
    path = tmp_path / "model.zrx"
    save_model(path, model, config, {"src": table_s, "tgt": table_t})
    again, cfg2, tables, raw = load_model(path)
    assert cfg2 == config
    orig_params = model.all_parameters()
    new_params = again.all_parameters()
    assert set(orig_params) == set(new_params)
    for name in orig_params:
        assert (orig_params[name] == new_params[name]).all(), name
    assert again.cfg.tied == model.cfg.tied
    assert again.cfg.use_char == model.cfg.use_char
    assert tables["src"].words == table_s.words
    assert tables["tgt"].words == table_t.words
    assert tables["tgt"].language == "es"
    np.testing.assert_allclose(
        tables["src"].vectors, table_s.vectors, atol=1e-6  # f32 storage
    )
    # aliasing survives the round trip
    assert again.named_parameters("src")["head.tag_w"] is \
        again.named_parameters("tgt")["head.tag_w"]
    # behavior identical on the reloaded model (f32 tables shift lookups)
    tokens = ["aa", "bb", "ab"]
    np.testing.assert_array_equal(
        predict(model, "src", tables["src"], [tokens]),
        predict(again, "src", tables["src"], [tokens]),
    )


def test_model_checkpoint_embeds_effective_config(tmp_path):
    config = TrainingConfig(
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4,
        epochs=17, dropout=0.25,
    )
    model = Tagger(config.tagger_config(5, ["O"]), CHARS, Rng(0))
    table = EmbeddingTable(["aa"], np.zeros((1, 5)))
    path = tmp_path / "m.zrx"
    save_model(path, model, config, {"src": table}, {"stage": "pretrain"})
    _, _, _, raw = load_model(path)
    assert raw["train.epochs"] == "17"
    assert raw["train.dropout"] == "0.25"
    assert raw["stage"] == "pretrain"
    assert raw["rng"] == "pcg64"


def test_model_checkpoint_with_a_retired_config_key_loads(tmp_path):
    # checkpoints written before train.direction was dropped still carry it
    config = TrainingConfig(
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4,
        variant="cross_shared",
    )
    model = Tagger(config.tagger_config(5, ["O", "B-PER"]), CHARS, Rng(0))
    table = EmbeddingTable(["aa"], np.zeros((1, 5)))
    save_model(tmp_path / "m.zrx", model, config, {"src": table})
    raw, tensors = load_checkpoint(tmp_path / "m.zrx")
    assert "train.direction" not in raw
    save_checkpoint(tmp_path / "old.zrx", {**raw, "train.direction": "t_to_s"},
                    tensors)
    again, again_config, _, _ = load_model(tmp_path / "old.zrx")
    assert again_config == config
    assert again.cfg == model.cfg
    for name, arr in model.all_parameters().items():
        np.testing.assert_array_equal(again.all_parameters()[name], arr)


@pytest.mark.parametrize("ch", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_vocabulary_with_line_break_character_round_trips(tmp_path, ch):
    word = f"a{ch}b"
    table = EmbeddingTable(["aa", word], np.random.default_rng(3).normal(
        size=(2, 5)), "es")
    chars = {**CHARS, ch: len(CHARS)}
    config = TrainingConfig(
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4
    )
    model = Tagger(config.tagger_config(5, ["O", "B-PER"]), chars, Rng(0))
    save_model(tmp_path / "m.zrx", model, config, {"src": table})
    loaded, _, tables, _ = load_model(tmp_path / "m.zrx")
    assert tables["src"].words == table.words
    assert loaded.char_vocab == chars


def _two_table_model(rows, dim):
    """(model, config, float64 tables) of a two-language tagger."""
    config = TrainingConfig(
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4
    )
    model = Tagger(config.tagger_config(dim, ["O", "B-PER"]), CHARS, Rng(0))
    model.add_target_encoder(Rng(1))
    rng = np.random.default_rng(4)
    tables = {lang: EmbeddingTable([f"{lang}{i}" for i in range(rows)],
                                   rng.normal(size=(rows, dim)), lang)
              for lang in ("src", "tgt")}
    return model, config, tables


def _two_table_checkpoint(path, rows=20000, dim=300):
    model, config, tables = _two_table_model(rows, dim)
    save_model(path, model, config, tables)
    return tables


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_model_memory_is_the_stored_tensors_plus_the_vocabulary(tmp_path):
    path = tmp_path / "m.zrx"
    tables = _two_table_checkpoint(path)
    _, stored = load_checkpoint(path)
    stored_bytes = sum(arr.nbytes for arr in stored.values())
    del stored
    # the words, their index and lowercase maps, built without any rows
    vocab, vocab_bytes = _traced_peak(lambda: [
        EmbeddingTable(t.words, np.zeros((len(t), 0), np.float32))
        for t in tables.values()])
    del vocab, tables
    (model, _, loaded, _), peak = _traced_peak(load_model, path)
    assert peak <= stored_bytes + vocab_bytes + (16 << 20)
    assert {t.vectors.dtype for t in loaded.values()} == {np.dtype(np.float32)}
    # saving a loaded float32 table again copies no table
    _, save_peak = _traced_peak(save_model, tmp_path / "again.zrx", model,
                                TrainingConfig(scheme=IOB2), loaded)
    assert save_peak < loaded["src"].vectors.nbytes // 2


def test_one_table_load_holds_that_table_alone(tmp_path):
    path = tmp_path / "m.zrx"
    tables = _two_table_checkpoint(path)
    model, _, full, _ = load_model(path)
    params_bytes = sum(arr.nbytes for arr in model.all_parameters().values())
    table_bytes = full["tgt"].vectors.nbytes
    vocab, vocab_bytes = _traced_peak(lambda: EmbeddingTable(
        tables["tgt"].words, np.zeros((len(tables["tgt"]), 0), np.float32)))
    del vocab, tables
    (one, _, loaded, config), peak = _traced_peak(
        load_model, path, lambda words_of: {"tgt": None})  # every row
    # the unread table costs a chunk and the set of its words
    assert peak <= params_bytes + table_bytes + vocab_bytes + (4 << 20)
    assert peak < params_bytes + 2 * table_bytes
    assert list(loaded) == ["tgt"]
    got, want = loaded["tgt"], full["tgt"]
    assert (got.words, got.language) == (want.words, want.language)
    assert got.vectors.dtype == want.vectors.dtype
    assert got.vectors.tobytes() == want.vectors.tobytes()
    for name, arr in model.all_parameters().items():
        assert one.all_parameters()[name].tobytes() == arr.tobytes()
    assert config == load_model(path)[3]
    assert list(load_model(path, lambda words_of: {"src": (0, 5)})[2]) == ["src"]
    assert load_model(path, lambda words_of: {})[2] == {}
    assert load_model(path, lambda words_of: {"xx": None})[2] == {}


def test_one_table_load_falls_back_in_order_of_preference(tmp_path):
    # the selection is told which tables the checkpoint holds, so it can
    # fall back from one language to another, as tag does
    model, config, tables = _two_table_model(30, 5)
    path = tmp_path / "src_only.zrx"
    save_model(path, model, config, {"src": tables["src"]})
    told = []

    def prefer(*langs):
        def rows(words_of):
            told.append(dict(words_of))
            lang = next((lang for lang in langs if lang in words_of), None)
            return {} if lang is None else {lang: None}
        return rows

    assert list(load_model(path, prefer("tgt", "src"))[2]) == ["src"]
    assert told == [{"src": tables["src"].words}]
    assert load_model(path, prefer("tgt"))[2] == {}
    assert list(load_model(path)[2]) == ["src"]


def test_row_selection_holds_the_rows_its_tokens_read(tmp_path):
    path = tmp_path / "m.zrx"
    words = _two_table_checkpoint(path)["tgt"].words
    rng = np.random.default_rng(9)
    picked = [words[i] for i in rng.integers(0, len(words), 80)]
    # exact, lowercase-only, out-of-table and repeated tokens, about 100
    tokens = picked + [w.upper() for w in picked[:15]] + ["unknown", "TGT"]
    tokens += picked[:5]
    (_, _, loaded, _), peak = _traced_peak(
        load_model, path,
        lambda words_of: {"tgt": select_rows(words_of["tgt"], tokens)})
    full = load_model(path)[2]["tgt"]
    # the rows read, the set of the words, one chunk and its finiteness mask
    assert peak < full.vectors.nbytes // 4
    assert list(loaded) == ["tgt"]
    part = loaded["tgt"]
    assert len(part) == len({full.row(t) for t in tokens} - {-1}) < 100
    assert (part.language, part.vectors.dtype) == ("tgt", np.float32)
    for token in tokens:
        want, got = full.row(token), part.row(token)
        assert (want == -1) == (got == -1)
        if want >= 0:
            assert part.words[got] == full.words[want]
            assert part.vectors[got].tobytes() == full.vectors[want].tobytes()
    # none of the rows of a table is held where no token reads one
    assert len(load_model(path, lambda words_of: {"tgt": []})[2]["tgt"]) == 0


def test_finetune_load_holds_the_rows_its_corpora_read_and_saves_tables_whole(
        tmp_path):
    from zrxner.cli import _finetune_rows
    from zrxner.corpus import Dataset, TaggedSentence

    path = tmp_path / "m.zrx"
    stored = _two_table_checkpoint(path)
    rng = np.random.default_rng(10)
    # about 100 tokens over the two languages' corpora, as finetune reads
    # them: exact, lowercase-only and out-of-table words, and an unreadable
    # corpus, which reads no row
    tokens = {lang: [stored[lang].words[i] for i in rng.integers(0, 20000, 40)]
              for lang in ("src", "tgt")}
    tokens["src"] += [w.upper() for w in tokens["src"][:8]] + ["unknown"]
    early = {"src_train": Dataset([TaggedSentence(tokens["src"][:30], None)]),
             "src_dev": Dataset([TaggedSentence(tokens["src"][30:], None)]),
             "tgt_train": Dataset([TaggedSentence(tokens["tgt"], None)]),
             "tgt_dev": OSError("unreadable")}
    (model, config, loaded, _), peak = _traced_peak(
        load_model, path, _finetune_rows(early))
    full_model, _, full, _ = load_model(path)
    table_bytes = full["tgt"].vectors.nbytes
    # the rows read, the words of each table, one chunk and its mask
    assert peak < table_bytes // 4
    for lang in ("src", "tgt"):
        part = loaded[lang]
        assert len(part) == len({full[lang].row(t) for t in tokens[lang]} - {-1})
        for token in tokens[lang]:
            got, want = part.row(token), full[lang].row(token)
            assert (got == -1) == (want == -1)
            if want >= 0:
                assert part.vectors[got].tobytes() == \
                    full[lang].vectors[want].tobytes()
    for name, arr in full_model.all_parameters().items():
        assert model.all_parameters()[name].tobytes() == arr.tobytes()
    # a save copies each table from the file: beside the config block, which
    # holds the words, at most two chunks
    words_bytes = sum(len(" ".join(t.words)) for t in full.values())
    _, save_peak = _traced_peak(save_model, tmp_path / "copied.zrx", model,
                                config, loaded)
    assert save_peak <= 2 * CHUNK_BYTES + 4 * words_bytes
    save_model(tmp_path / "whole.zrx", full_model, config, full)
    assert (tmp_path / "copied.zrx").read_bytes() == \
        (tmp_path / "whole.zrx").read_bytes() == path.read_bytes()


def test_save_model_rounds_float64_tables_a_chunk_at_a_time(tmp_path):
    model, config, tables = _two_table_model(20000, 300)
    assert {t.vectors.dtype for t in tables.values()} == {np.dtype(np.float64)}
    _, peak = _traced_peak(save_model, tmp_path / "m.zrx", model, config,
                           tables)
    # one chunk of rounded rows and the config block, which holds the words
    words_bytes = sum(len(" ".join(t.words)) for t in tables.values())
    assert peak <= CHUNK_BYTES + 4 * words_bytes + (1 << 20)
    assert peak < tables["src"].vectors.nbytes // 8
    rounded = {lang: EmbeddingTable(t.words, t.vectors.astype(np.float32),
                                    t.language)
               for lang, t in tables.items()}
    save_model(tmp_path / "rounded.zrx", model, config, rounded)
    assert (tmp_path / "m.zrx").read_bytes() == \
        (tmp_path / "rounded.zrx").read_bytes()


def test_loaded_float32_rows_widen_exactly(tmp_path):
    path = tmp_path / "m.zrx"
    _two_table_checkpoint(path, rows=50, dim=5)
    model, _, tables, _ = load_model(path)
    table = tables["tgt"]
    assert table.vectors.dtype == np.float32
    widened = EmbeddingTable(table.words, table.vectors.astype(np.float64),
                             table.language)  # what loading used to build
    tokens = ["tgt3", "TGT7", "unknown", "tgt49", "tgt3"]
    got, want = np.full((2, len(tokens), 5), np.nan)
    model.prepare(table, tokens).write_word_vecs(got)
    model.prepare(widened, tokens).write_word_vecs(want)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert not got[2].any()  # the out-of-table word
    w = np.random.default_rng(5).normal(size=(5, 5))
    # mapped in float64 from the widened rows, then rounded once
    mapped = apply_mapper(table, w).vectors
    assert mapped.dtype == np.float32
    assert mapped.tobytes() == \
        apply_mapper(widened, w).vectors.astype(np.float32).tobytes()
    np.testing.assert_array_equal(
        predict(model, "tgt", table, [tokens]),
        predict(model, "tgt", widened, [tokens]))
