"""Serialize mappers, tagger models, and their embedding tables into the
checkpoint container.

Trainable tensors are stored in float64 (bit-exact round trips); frozen
embedding tables are stored in float32 and load as float32 tables, which
the readers of their rows widen to float64 exactly. The commands hold every
table in float32 already, so what they train and select on is what a
checkpoint stores, and saving writes the table's own bytes. A float64
table, which only the library builds, is rounded to float32 a chunk at a
time as it is saved. No table is copied. A loader says which rows of each
table to hold, none, some or every; every row is still checked. A table
held by rows (CheckpointRows) saves as the whole table it was loaded from:
its words as the config held them and its values copied from the file.
Vocabulary lists ride in the flat config block: words are whitespace-free
by construction, characters are stored as one string in index order. The
`numeric.` entries that the commands add (NumPy, BLAS build and thread
count) describe the run; no loader reads them.
"""

from dataclasses import replace

import numpy as np

from .align import LinearMapper
from .checkpoint import (
    flat_to_fields,
    load_checkpoint,
    save_checkpoint,
)
from .corpus import PAD_CHAR, UNK_CHAR
from .embeddings import EmbeddingTable, check_table
from .errors import CheckpointError, UsageError
from .numeric import RNG_ALGORITHM
from .tagger import Tagger, TaggerConfig
from .trainer import TrainingConfig


def save_mapper(path, mapper, extra_config=None):
    config = {
        "kind": "mapper",
        "direction": mapper.direction,
        "dim": mapper.dim,
        "rng": RNG_ALGORITHM,
    }
    if extra_config:
        config.update(extra_config)
    save_checkpoint(path, config, {"mapper.w": mapper.w})


def load_mapper(path):
    config, tensors = load_checkpoint(path)
    if config.get("kind") != "mapper":
        raise CheckpointError(f"{path} is not a mapper checkpoint")
    return LinearMapper(tensors["mapper.w"], config["direction"]), config


def _chars_to_text(char_vocab):
    ordered = sorted(char_vocab.items(), key=lambda kv: kv[1])
    chars = []
    for ch, idx in ordered:
        if ch in (PAD_CHAR, UNK_CHAR):
            continue
        chars.append(ch)
    return "".join(chars)


def _chars_from_text(text):
    vocab = {PAD_CHAR: 0, UNK_CHAR: 1}
    for ch in text:
        vocab[ch] = len(vocab)
    return vocab


class CheckpointRows(EmbeddingTable):
    """Some rows of a table that a checkpoint file stores: a table of those
    rows and their words, which save_model saves as the whole stored table,
    from stored_words (the config's words entry) and stored (the
    checkpoint's StoredTensor)."""

    def __init__(self, words, vectors, language, stored_words, stored):
        super().__init__(words, vectors, language)
        self.stored_words, self.stored = stored_words, stored


def save_model(path, model, train_config, tables, extra_config=None):
    """Persist a tagger with its common-space embedding tables.

    tables maps language keys ('src', 'tgt') to the EmbeddingTables the
    model was trained against, so tagging needs nothing but the checkpoint.
    A CheckpointRows table is saved whole, its values copied from the file
    it was loaded from.
    """
    config = {
        "kind": "tagger",
        "rng": RNG_ALGORITHM,
        "tags": " ".join(model.cfg.tags),
        "chars": _chars_to_text(model.char_vocab),
        "languages": " ".join(sorted(model.encoders)),
        "word_dim": model.cfg.word_dim,
        # structural truth; the variant name alone does not pin these for
        # fine-tuned models (cross_augmented inherits its base's structure)
        "model.use_char": model.cfg.use_char,
        "model.tied": model.cfg.tied,
    }
    config.update(train_config.to_flat())
    if extra_config:
        config.update(extra_config)
    tensors = dict(model.all_parameters())
    for lang, table in tables.items():
        if table is None:
            continue
        stored = isinstance(table, CheckpointRows)
        config[f"emb.{lang}.words"] = (table.stored_words if stored
                                       else " ".join(table.words))
        config[f"emb.{lang}.language"] = table.language
        tensors[f"emb.{lang}.vectors"] = table.stored if stored else table.vectors
    save_checkpoint(path, config, tensors, float32={
        name for name in tensors if _table_language(name) is not None})


def _table_language(name, suffix=".vectors"):
    """The language of a table tensor's name (of a table's words key, with
    suffix ".words"), else None."""
    if name.startswith("emb.") and name.endswith(suffix):
        return name[len("emb.") : -len(suffix)]
    return None


class _NoDraws:
    """The rng of a model whose every tensor a checkpoint then overwrites:
    it draws nothing, and gives arrays left uninitialized."""

    @staticmethod
    def normal(shape, scale=1.0):
        return np.empty(shape)


def load_model(path, rows=None):
    """Rebuild (model, train_config, tables, raw config) from a checkpoint.
    A missing key, a config value that does not parse or that the range
    checks refuse, and a tensor whose shape is not the model's are artifact
    errors naming the key or the tensor.

    rows, if given, is called with a dict that maps the language of each
    table in the checkpoint to its words, and returns a dict that maps the
    language of each table to hold to the rows to hold: sorted indices
    (`select_rows` gives those a tagger reads), or None for every row. Such
    a table holds those rows and their words alone, as a CheckpointRows
    where the file can be read again, and a table whose language is left out
    holds none and is not returned. Every row of every table is still
    checked. Without rows, every table is held whole."""

    chosen = {}

    def select(config):
        chosen.update(rows({
            lang: config[key].split(" ") for key in config
            if (lang := _table_language(key, ".words")) is not None}))

        def rows_of(name):
            lang = _table_language(name)
            return None if lang is None else chosen.get(lang, ())

        return rows_of

    config, tensors = load_checkpoint(path, None if rows is None else select)
    if config.get("kind") != "tagger":
        raise CheckpointError(f"{path} is not a tagger checkpoint")

    def required(key):
        if key not in config:
            raise CheckpointError(f"{path}: checkpoint lacks config key {key!r}")
        return config[key]

    try:
        train_config = TrainingConfig.from_flat(config)
        # the structural keys save_model writes, and only those
        structure = flat_to_fields(TaggerConfig, "model", {
            key: config[key] for key in ("model.use_char", "model.tied")
            if key in config})
        word_dim = int(required("word_dim"))
    except UsageError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except ValueError:
        raise CheckpointError(f"{path}: word_dim={config['word_dim']!r} "
                              "is not a valid int") from None
    tags = required("tags").split(" ")
    char_vocab = _chars_from_text(config.get("chars", ""))
    languages = tuple(required("languages").split(" "))
    tagger_cfg = replace(train_config.tagger_config(word_dim, tags), **structure)
    model = Tagger(tagger_cfg, char_vocab, _NoDraws(), languages)
    params = model.all_parameters()
    missing = set(params) - set(tensors)
    if missing:
        raise CheckpointError(f"checkpoint lacks tensors: {sorted(missing)}")
    for name, arr in params.items():
        if tensors[name].shape != arr.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"the model's is {arr.shape}")
        np.copyto(arr, tensors[name])
    tables = {}
    for key, arr in tensors.items():
        lang = _table_language(key)
        if lang is None:
            continue
        words_key = f"emb.{lang}.words"
        words = required(words_key).split(" ")
        language = config.get(f"emb.{lang}.language", lang)
        try:
            if isinstance(arr, np.ndarray):
                tables[lang] = EmbeddingTable(words, arr, language)
                continue
            check_table(words, arr.shape, lambda: arr.finite)
            if lang not in chosen:
                continue
            held = [words[i] for i in arr.rows]
            tables[lang] = (
                EmbeddingTable(held, arr.values, language) if arr.stored is None
                else CheckpointRows(held, arr.values, language,
                                    config[words_key], arr.stored))
        except UsageError as exc:
            raise CheckpointError(f"{path}: tensor {key}: {exc}") from None
    return model, train_config, tables, config
