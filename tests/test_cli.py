import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import zrxner
from zrxner.checkpoint import load_checkpoint, save_checkpoint
from zrxner.cli import _load_table, _load_tables, _read_dataset, main
from zrxner.corpus import IOB2, read_conll
from zrxner.embeddings import EmbeddingTable, write_vec_text
from zrxner.errors import ParseError
from zrxner.numeric import Rng
from zrxner.persist import load_mapper, load_model, save_model
from zrxner.tagger import Tagger
from zrxner.trainer import TrainingConfig

from fixtures import BilingualFixture, precision_at_1


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture corpus and embeddings written to disk in CLI formats."""
    root = tmp_path_factory.mktemp("cli")
    fx = BilingualFixture(seed=31, n_train=240, n_dev=60, n_test=60)
    from zrxner.corpus import write_conll

    def dump_conll(name, dataset):
        path = root / name
        with open(path, "w", encoding="utf-8") as fh:
            write_conll(dataset, fh)
        return str(path)

    def dump_vec(name, table):
        path = root / name
        with open(path, "w", encoding="utf-8") as fh:
            write_vec_text(table, fh, fmt="%.8f")
        return str(path)

    paths = {
        "src_train": dump_conll("src_train.conll", fx.src_train),
        "src_dev": dump_conll("src_dev.conll", fx.src_dev),
        "tgt_train": dump_conll("tgt_train.conll", fx.tgt_train_unlabeled),
        "tgt_dev": dump_conll("tgt_dev.conll", fx.tgt_dev),
        "tgt_test": dump_conll("tgt_test.conll", fx.tgt_test),
        "src_emb": dump_vec("src.vec", fx.src_emb),
        "tgt_emb": dump_vec("tgt.vec", fx.tgt_emb),
        "root": root,
        "fx": fx,
    }
    return paths


ALIGN_FLAGS = [
    "--w-steps", "8000", "--disc-steps", "5", "--batch-size", "64",
    "--disc-hidden", "128", "--vocab-cap", "1000", "--csls-k", "10",
    "--dict-top-n", "1000", "--restarts", "3",
]


@pytest.fixture(scope="module")
def mapper_path(workdir):
    out = str(workdir["root"] / "mapper.zrx")
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--direction", "t2s", "--seed", "0",
        "--refine-iters", "4", "--out", out,
        "--dict-out", str(workdir["root"] / "dict.txt"),
        "--log", str(workdir["root"] / "align.log"), *ALIGN_FLAGS,
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pretrain_run(workdir, mapper_path):
    """(checkpoint path, what the command printed)."""
    out = str(workdir["root"] / "pretrained.zrx")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([
            "pretrain", "--train", workdir["src_train"], "--dev",
            workdir["src_dev"], "--tgt-dev", workdir["tgt_dev"],
            "--src-emb", workdir["src_emb"], "--tgt-emb",
            workdir["tgt_emb"], "--mapper", mapper_path,
            "--variant", "cross_word", "--scheme", "IOBES", "--input-scheme",
            "IOB2", "--select", "src_dev", "--seed", "0", "--epochs", "12",
            "--eval-interval", "30", "--char-dim", "8", "--char-hidden", "8",
            "--word-hidden", "16", "--head-hidden", "16",
            "--out", out, "--log", str(workdir["root"] / "pretrain.log"),
        ])
    assert code == 0
    return out, printed.getvalue()


@pytest.fixture(scope="module")
def pretrained_path(pretrain_run):
    return pretrain_run[0]


def test_align_artifacts(workdir, mapper_path):
    mapper, config = load_mapper(mapper_path)
    assert config["direction"] == "t_to_s"
    assert mapper.orthogonality_error() < 1e-6
    log = (workdir["root"] / "align.log").read_text().splitlines()
    assert any(line.startswith("adversarial\t") for line in log)
    assert any(line.startswith("refine\t") for line in log)
    # vocabularies share no strings, so the identical-string P@1 is nan
    assert config["identical_string_p1"] == "nan"
    # ground truth: ciphered twin at the same row index
    fx = workdir["fx"]
    p1 = precision_at_1(fx.src_emb, fx.tgt_emb, mapper)
    assert p1 >= 0.9, f"mapper P@1 {p1}"
    dict_lines = (workdir["root"] / "dict.txt").read_text().splitlines()
    assert len(dict_lines) > 50
    tgt_word, src_word = dict_lines[0].split()
    assert tgt_word in fx.tgt_emb.words
    assert src_word in fx.src_emb.words


def test_align_deterministic_dictionary(workdir, mapper_path):
    out2 = str(workdir["root"] / "mapper2.zrx")
    dict2 = str(workdir["root"] / "dict2.txt")
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--direction", "t2s", "--seed", "0",
        "--refine-iters", "4", "--out", out2, "--dict-out", dict2,
        *ALIGN_FLAGS,
    ])
    assert code == 0
    assert (workdir["root"] / "dict.txt").read_bytes() == \
        (workdir["root"] / "dict2.txt").read_bytes()


def test_align_unwritable_log_exits_2_before_the_game(workdir, tmp_path,
                                                     capsys, monkeypatch):
    import zrxner.align as al

    def no_game(*args, **kwargs):
        raise AssertionError("the game started")

    monkeypatch.setattr(al, "adversarial_train", no_game)
    log = tmp_path / "no-such-dir" / "align.log"
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--log", str(log), "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(log) in err and "Traceback" not in err
    assert not (tmp_path / "m.zrx").exists()


def test_align_numerical_failure_mid_game_leaves_the_rows_reached(
        workdir, tmp_path, capsys, monkeypatch):
    import zrxner.align as al

    original, calls = al.orthogonalize, []

    def fail_at_step_250(w, beta):
        calls.append(None)
        w = original(w, beta)
        return w * np.nan if len(calls) == 251 else w

    monkeypatch.setattr(al, "orthogonalize", fail_at_step_250)
    log = tmp_path / "align.log"
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--w-steps", "400", "--disc-steps", "1",
        "--batch-size", "16", "--disc-hidden", "16", "--vocab-cap", "200",
        "--restarts", "1", "--log", str(log), "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 4
    assert "non-finite at step 250" in capsys.readouterr().err
    rows = [row.split("\t") for row in log.read_text().splitlines()]
    assert [row[:2] for row in rows] == [
        ["adversarial", "0"], ["adversarial", "100"], ["adversarial", "200"]]
    assert all(len(row) == 4 for row in rows)
    assert not (tmp_path / "m.zrx").exists()


def test_align_refine_zero_saves_adversarial_only(workdir):
    out = str(workdir["root"] / "mapper_raw.zrx")
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--direction", "t2s", "--seed", "1",
        "--refine-iters", "0", "--out", out, "--w-steps", "50",
        "--disc-steps", "2", "--batch-size", "16", "--disc-hidden", "16",
        "--vocab-cap", "200", "--restarts", "1",
    ])
    assert code == 0
    mapper, config = load_mapper(out)
    assert config["refine_iters"] == "0"
    assert not any(key.startswith("align.refine") for key in config)


def test_align_unknown_config_key_exit_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("align.refine_iterations=3\n")
    out = tmp_path / "m.zrx"
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--config", str(cfg), "--out", str(out),
        "--w-steps", "10", "--restarts", "1", "--refine-iters", "0",
    ])
    assert code == 2
    assert "refine_iterations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--vocab-cap", "0", "align.vocab_cap must be at least 1, got 0"),
    ("--batch-size", "0", "align.batch_size must be at least 1, got 0"),
    ("--w-steps", "-1", "align.w_steps must be at least 0, got -1"),
    ("--disc-hidden", "0", "align.disc_hidden must be at least 1, got 0"),
    ("--csls-k", "0", "align.csls_k must be at least 1, got 0"),
    ("--dict-top-n", "0", "align.dict_top_n must be at least 1, got 0"),
    ("--dict-top-n", "-1", "align.dict_top_n must be at least 1, got -1"),
    ("--disc-steps", "-1", "align.disc_steps must be at least 0, got -1"),
    ("--restarts", "0", "align.restarts must be at least 1, got 0"),
    ("--refine-iters", "-1", "--refine-iters must be at least 0, got -1"),
])
def test_align_out_of_range_value_exit_2_before_reading_tables(
        flag, value, key, tmp_path, capsys, monkeypatch):
    import zrxner.cli as cli_mod

    for name in ("s.vec", "t.vec"):
        (tmp_path / name).write_text("3 2\na 1 0\nb 0 1\nc 1 1\n")
    read = []
    monkeypatch.setattr(cli_mod, "_load_table",
                        lambda *args: read.append(args) or _load_table(*args))
    out = tmp_path / "m.zrx"
    code = main([
        "align", "--src-emb", str(tmp_path / "s.vec"), "--tgt-emb",
        str(tmp_path / "t.vec"), "--out", str(out), "--w-steps", "3",
        "--restarts", "1", "--refine-iters", "0", flag, value,
    ])
    assert code == 2
    assert key in capsys.readouterr().err
    assert read == [] and not out.exists()


def test_align_dimension_mismatch_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.vec"
    bad.write_text("2 3\na 1 2 3\nb 4 5 6\n")
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb", str(bad),
        "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    assert "dimension mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("empty_side", ["src", "tgt"])
@pytest.mark.parametrize("w_steps", ["0", "5"])
def test_align_table_without_rows_exit_2(tmp_path, capsys, empty_side, w_steps):
    (tmp_path / "empty.vec").write_text("0 4\n")
    (tmp_path / "rows.vec").write_text("3 4\na 1 0 0 0\nb 0 1 0 0\nc 0 0 1 0\n")
    tables = {"src": "rows.vec", "tgt": "rows.vec", empty_side: "empty.vec"}
    code = main([
        "align", "--src-emb", str(tmp_path / tables["src"]),
        "--tgt-emb", str(tmp_path / tables["tgt"]), "--w-steps", w_steps,
        "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {empty_side} table has no rows to align\n"
    assert not (tmp_path / "m.zrx").exists()


@pytest.mark.parametrize("command", ["align", "eval"])
def test_input_that_is_not_utf8_exit_2(command, tmp_path, capsys):
    if command == "align":
        (tmp_path / "good.vec").write_bytes(b"2 2\na 1 2\nb 3 2\n")
        (tmp_path / "bad.vec").write_bytes(b"2 2\na 1 2\nb \xff 2\n")
        argv = ["align", "--src-emb", str(tmp_path / "bad.vec"), "--tgt-emb",
                str(tmp_path / "good.vec"), "--out", str(tmp_path / "m.zrx"),
                "--w-steps", "2", "--restarts", "1", "--refine-iters", "0"]
    else:
        (tmp_path / "gold.conll").write_bytes(b"a B-PER\nb O\n")
        (tmp_path / "pred.conll").write_bytes(b"a B-PER\n\xff O\n")
        argv = ["eval", "--gold", str(tmp_path / "gold.conll"),
                "--pred", str(tmp_path / "pred.conll")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "m.zrx").exists()


def test_pretrain_artifacts(workdir, pretrained_path):
    model, config, tables, raw = load_model(pretrained_path)
    assert raw["stage"] == "pretrain"
    assert config.variant == "cross_word"
    assert "src" in tables and "tgt" in tables
    assert raw["train.scheme"] == "IOBES"
    # frozen tables are stored single precision
    _, tensors = load_checkpoint(pretrained_path)
    assert tensors["emb.src.vectors"].dtype == np.float32
    assert tensors["head.tag_w"].dtype == np.float64
    log_lines = (workdir["root"] / "pretrain.log").read_text().splitlines()
    # step, three loss terms, lr, then one split=f1 column per evaluated split
    assert log_lines
    for line in log_lines:
        cols = line.split("\t")
        assert len(cols) == 7
        assert [c.split("=")[0] for c in cols[5:]] == ["src_dev", "tgt_dev"]


def test_pretrain_zero_epochs_logs_one_row_with_nan_source_loss(workdir,
                                                                tmp_path):
    # no batch ran, so no loss term has a value
    log = tmp_path / "run.log"
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"],
        "--variant", "source_mono", "--input-scheme", "IOB2", "--epochs", "0",
        "--char-dim", "8", "--char-hidden", "8", "--word-hidden", "16",
        "--head-hidden", "16", "--log", str(log), "--out", str(tmp_path / "m"),
    ])
    assert code == 0
    rows = log.read_text().splitlines()
    assert len(rows) == 1
    assert rows[0].split("\t")[:5] == ["0", "nan", "nan", "nan", "0.100000"]


@pytest.mark.parametrize("command, flags, line, message", [
    ("pretrain", [], "train.decay=-1", "train.decay must be at least 0, got -1.0"),
    ("pretrain", [], "train.clip=0", "train.clip must be above 0, got 0.0"),
    ("pretrain", ["--word-hidden", "0"], None,
     "train.word_hidden must be at least 1, got 0"),
    ("pretrain", ["--char-hidden", "-2"], None,
     "train.char_hidden must be at least 1, got -2"),
    ("pretrain", ["--char-dim", "0"], None,
     "train.char_dim must be at least 1, got 0"),
    ("pretrain", ["--head-hidden", "0"], None,
     "train.head_hidden must be at least 1, got 0"),
    ("pretrain", ["--limit", "0"], None,
     "train.emb_limit must be at least 1, got 0"),
    ("pretrain", ["--limit", "-1"], None,
     "train.emb_limit must be at least 1, got -1"),
    ("finetune", ["--rounds", "-1"], None,
     "train.rounds must be at least 0, got -1"),
    ("finetune", ["--n-steps", "-3"], None,
     "train.n_steps must be at least 0, got -3"),
    ("finetune", [], "train.decay=-1", "train.decay must be at least 0, got -1.0"),
    ("finetune", ["--seeds", "0,x"], None,
     "--seeds must be comma-separated integers, got '0,x'"),
    ("finetune", ["--seeds", ","], None, "at least one seed is required"),
    ("pretrain", ["--lr0", "-5"], None, "train.lr0 must be above 0, got -5.0"),
    ("finetune", [], "train.lr_floor=-1",
     "train.lr_floor must be at least 0, got -1.0"),
])
def test_bad_training_value_exit_2_before_reading_anything(
        command, flags, line, message, tmp_path, capsys, monkeypatch):
    import zrxner.cli as cli_mod

    read = []
    for name in ("_read_dataset", "_load_table", "load_model"):
        monkeypatch.setattr(cli_mod, name, lambda *a, **k: read.append(a))
    missing = str(tmp_path / "missing")
    if command == "pretrain":
        argv = ["pretrain", "--train", missing, "--dev", missing,
                "--src-emb", missing]
    else:
        argv = ["finetune", "--checkpoint", missing, "--src-train", missing,
                "--tgt-train", missing]
    if line is not None:
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    code = main(argv + flags + ["--out", str(tmp_path / "m")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert read == [] and not list(tmp_path.glob("m*"))


def test_finetune_repeated_seed_exit_2_before_training(
        workdir, pretrained_path, tmp_path, capsys):
    code = main([
        "finetune", "--checkpoint", pretrained_path, "--src-train",
        workdir["src_train"], "--tgt-train", workdir["tgt_train"],
        "--src-dev", workdir["src_dev"], "--input-scheme", "IOB2",
        "--select", "src_dev", "--seeds", "0,1,0", "--rounds", "1",
        "--log", str(tmp_path / "ft.log"), "--manifest",
        str(tmp_path / "ft.json"), "--out", str(tmp_path / "ft"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --seeds repeats 0\n"
    assert list(tmp_path.iterdir()) == []


def _tag_crafted(config, tensors, workdir, tmp_path, capsys, damage=None):
    """Exit code and stderr, less its prefix, of `tag` on a checkpoint
    re-signed from config and tensors, its bytes then passed through
    damage, if given."""
    path = tmp_path / "crafted.zrx"
    save_checkpoint(path, config, tensors)
    if damage is not None:
        path.write_bytes(damage(path.read_bytes()))
    code = main(["tag", "--checkpoint", str(path), "--input",
                 workdir["tgt_dev"], "--output", str(tmp_path / "out.conll")])
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not (tmp_path / "out.conll").exists()
    return code, err.removeprefix(f"artifact error: {path}: ")


@pytest.mark.parametrize("key, value, message", [
    ("train.epochs", "abc", "train.epochs='abc' is not a valid int"),
    ("train.decay", "-1", "train.decay must be at least 0, got -1.0"),
    ("train.rounds", "-1", "train.rounds must be at least 0, got -1"),
    ("train.variant", "bogus", "train.variant must be one of"),
    ("model.tied", "maybe", "model.tied='maybe' is not true or false"),
    ("word_dim", "x", "word_dim='x' is not a valid int"),
    ("train.lr0", "-5", "train.lr0 must be above 0, got -5.0"),
    ("train.lr_floor", "-1", "train.lr_floor must be at least 0, got -1.0"),
    *[(key, None, f"checkpoint lacks config key {key!r}")  # None: deleted
      for key in ("tags", "languages", "word_dim", "emb.tgt.words")],
])
def test_checkpoint_config_value_refused_exit_3(pretrained_path, workdir,
                                                tmp_path, capsys, key, value,
                                                message):
    config, tensors = load_checkpoint(pretrained_path)
    assert key in config
    if value is None:
        del config[key]
    else:
        config[key] = value
    code, err = _tag_crafted(config, tensors, workdir, tmp_path, capsys)
    assert code == 3 and err.startswith(message)


@pytest.mark.parametrize("name, shape", [
    ("head.tag_w", (3, 3)),  # another shape
    ("head.dense_b", None),  # the model's (n,) as (1, n), which would broadcast
    ("head.trans", None),  # the model's (n, n) as (1, n, n)
])
def test_checkpoint_tensor_of_another_shape_exit_3(pretrained_path, workdir,
                                                   tmp_path, capsys, name,
                                                   shape):
    config, tensors = load_checkpoint(pretrained_path)
    want = tensors[name].shape
    tensors[name] = (np.zeros(shape) if shape is not None
                     else tensors[name][None])
    assert _tag_crafted(config, tensors, workdir, tmp_path, capsys) == (
        3, f"tensor {name} has shape {tensors[name].shape}, the model's is "
           f"{want}\n")


def test_checkpoint_table_words_disagreeing_with_rows_exit_3(
        pretrained_path, workdir, tmp_path, capsys):
    config, tensors = load_checkpoint(pretrained_path)
    config["emb.tgt.words"] += " extra"
    assert _tag_crafted(config, tensors, workdir, tmp_path, capsys) == (
        3, "tensor emb.tgt.vectors: words and vectors disagree\n")


def _src_table_data(blob):
    """Offset of the source table's first value in checkpoint bytes."""
    name = b"emb.src.vectors"
    return blob.index(name) + len(name) + 4 + 2 * 4 + 1  # rank, dims, dtype


def _flip_in_src_table(blob):
    at = _src_table_data(blob) + 100
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def _overstate_src_rows(blob):
    import hashlib

    at = _src_table_data(blob) - 1 - 2 * 4  # the row count
    payload = blob[:at] + (2**31).to_bytes(4, "little") + blob[at + 4:-8]
    return payload + hashlib.sha256(payload).digest()[:8]


def _repeat_a_src_word(config, tensors):
    words = config["emb.src.words"].split(" ")
    config["emb.src.words"] = " ".join([words[1]] + words[1:])


@pytest.mark.parametrize("fault, damage, message", [
    (None, _flip_in_src_table,
     "artifact error: checksum mismatch: file is corrupt\n"),
    (None, _overstate_src_rows, "artifact error: truncated tensor data\n"),
    (lambda config, tensors: config.update(
        {"emb.src.words": config["emb.src.words"] + " extra"}), None,
     "tensor emb.src.vectors: words and vectors disagree\n"),
    (_repeat_a_src_word, None,
     "tensor emb.src.vectors: duplicate words in embedding table\n"),
    (lambda config, tensors: tensors["emb.src.vectors"].__setitem__(
        (7, 3), np.inf), None,
     "tensor emb.src.vectors: non-finite vector entries\n"),
])
def test_fault_in_the_table_tag_does_not_read_exit_3(
        pretrained_path, workdir, tmp_path, capsys, fault, damage, message):
    # tag --language tgt holds the target table alone; the source table is
    # still checked as it is read, and refused as before
    config, tensors = load_checkpoint(pretrained_path)
    assert {"emb.src.vectors", "emb.tgt.vectors"} <= set(tensors)
    if fault is not None:
        fault(config, tensors)
    assert _tag_crafted(config, tensors, workdir, tmp_path, capsys,
                        damage) == (3, message)


def _tables_loaded(monkeypatch, full):
    """A list that collects the table languages of each load_model call
    of the CLI; with full, every call loads every table."""
    import zrxner.cli as cli_mod

    seen = []

    def spy(path, languages=None):
        result = load_model(path, None if full else languages)
        seen.append(sorted(result[2]))
        return result

    monkeypatch.setattr(cli_mod, "load_model", spy)
    return seen


def _source_only(pretrained_path, tmp_path):
    config, tensors = load_checkpoint(pretrained_path)
    for key in ("emb.tgt.words", "emb.tgt.language"):
        del config[key]
    del tensors["emb.tgt.vectors"]
    path = tmp_path / "src_only.zrx"
    save_checkpoint(path, config, tensors)
    return str(path)


@pytest.mark.parametrize("checkpoint, argv, table", [
    ("both", ["tag", "--language", "tgt", "--to-iob2"], "tgt"),
    ("both", ["tag", "--language", "src"], "src"),
    ("src_only", ["tag", "--language", "tgt"], "src"),
    ("both", ["project", "--language", "tgt", "--limit", "100000"], "tgt"),
    ("both", ["project", "--language", "src", "--limit", "40"], "src"),
])
def test_tag_and_project_read_one_table_as_a_full_load_would(
        pretrained_path, workdir, tmp_path, monkeypatch, checkpoint, argv,
        table):
    path = (pretrained_path if checkpoint == "both"
            else _source_only(pretrained_path, tmp_path))
    io_flags = {"tag": ["--input", workdir["tgt_dev"], "--output"],
                "project": ["--manifest", str(tmp_path / "m.json"), "--out"]}
    outputs = []
    for full in (False, True):
        seen = _tables_loaded(monkeypatch, full)
        out = tmp_path / f"out{full}"
        assert main([argv[0], "--checkpoint", path, *argv[1:],
                     *io_flags[argv[0]], str(out)]) == 0
        assert seen == [[table] if not full or checkpoint == "src_only"
                        else ["src", "tgt"]]
        extra = (tmp_path / "m.json").read_bytes() if argv[0] == "project" else b""
        outputs.append((out.read_bytes(), extra))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, value", [
    (["project", "--checkpoint", "CKPT", "--limit", "0"], 0),
    (["project", "--checkpoint", "CKPT", "--limit", "-5"], -5),
    (["project", "--emb", "SRC", "--limit", "-3"], -3),
    (["align", "--src-emb", "SRC", "--tgt-emb", "TGT", "--limit", "0"], 0),
])
def test_limit_below_one_exit_2_before_reading_anything(
        pretrained_path, workdir, tmp_path, capsys, monkeypatch, argv, value):
    import zrxner.cli as cli_mod

    read = []
    for name in ("_load_table", "_load_tables", "load_model",
                 "_read_config_file"):
        monkeypatch.setattr(cli_mod, name,
                            lambda *args, name=name: read.append(name))
    paths = {"CKPT": pretrained_path, "SRC": workdir["src_emb"],
             "TGT": workdir["tgt_emb"]}
    out = tmp_path / "out"
    code = main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: --limit must be at least 1, got {value}\n"
    assert read == [] and not out.exists()


@pytest.mark.parametrize("key, value", [
    ("model.word_dim", "3"), ("model.tags", "B-PER O"),
])
def test_checkpoint_model_keys_beyond_the_structural_two_are_ignored(
        pretrained_path, tmp_path, key, value):
    config, tensors = load_checkpoint(pretrained_path)
    config[key] = value
    path = tmp_path / "crafted.zrx"
    save_checkpoint(path, config, tensors)
    model = load_model(str(path))[0]
    base = load_model(pretrained_path)[0]
    assert model.cfg == base.cfg


def test_pretrain_missing_tag_column_exit_2(workdir):
    code = main([
        "pretrain", "--train", workdir["tgt_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"],
        "--variant", "source_mono",
        "--out", str(workdir["root"] / "x.zrx"),
    ])
    assert code == 2


def _wider_table(workdir, tmp_path):
    """A target .vec one column wider than the source table."""
    path = tmp_path / "wide.vec"
    width = workdir["fx"].src_emb.dim + 1
    path.write_text(f"2 {width}\n" + "".join(
        f"{word} " + " ".join(["0.5"] * width) + "\n" for word in ("x", "y")))
    return str(path)


def _refuse_training(monkeypatch):
    import zrxner.cli as cli_mod

    ran = []
    for name in ("pretrain_source", "augmented_finetune"):
        monkeypatch.setattr(cli_mod, name, lambda *a, **k: ran.append(a))
    return ran


def test_pretrain_embedding_dimension_mismatch_exit_2_without_mapper(
        workdir, tmp_path, capsys, monkeypatch):
    ran = _refuse_training(monkeypatch)
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"], "--tgt-emb",
        _wider_table(workdir, tmp_path), "--variant", "source_mono",
        "--input-scheme", "IOB2", "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: embedding dimensions differ between languages\n")
    assert ran == [] and not (tmp_path / "m.zrx").exists()


def test_finetune_embedding_dimension_mismatch_exit_2_without_mapper(
        workdir, tmp_path, capsys, monkeypatch):
    mono = str(tmp_path / "mono.zrx")
    assert main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"], "--variant",
        "source_mono", "--input-scheme", "IOB2", "--epochs", "0",
        "--char-dim", "4", "--char-hidden", "4", "--word-hidden", "4",
        "--head-hidden", "4", "--out", mono,
    ]) == 0
    capsys.readouterr()
    ran = _refuse_training(monkeypatch)
    code = main([
        "finetune", "--checkpoint", mono, "--src-train",
        workdir["src_train"], "--tgt-train", workdir["tgt_train"],
        "--tgt-emb", _wider_table(workdir, tmp_path), "--input-scheme",
        "IOB2", "--seeds", "0", "--out", str(tmp_path / "ft"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: embedding dimensions differ between languages\n")
    assert ran == [] and not list(tmp_path.glob("ft*"))


def test_pretrain_nochar_checkpoint_lacks_char_tensors(workdir, mapper_path):
    out = str(workdir["root"] / "nochar.zrx")
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--mapper", mapper_path, "--variant",
        "cross_word_nochar", "--scheme", "IOBES", "--input-scheme", "IOB2",
        "--seed", "0", "--epochs", "1", "--eval-interval", "50",
        "--word-hidden", "16", "--head-hidden", "16", "--out", out,
    ])
    assert code == 0
    _, tensors = load_checkpoint(out)
    assert not any(".char." in n or n == "char_emb" for n in tensors)


def test_pretrain_cross_shared_halves_recurrent_tensors(workdir, mapper_path,
                                                        pretrained_path):
    out = str(workdir["root"] / "shared.zrx")
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--mapper", mapper_path, "--variant",
        "cross_shared", "--scheme", "IOBES", "--input-scheme", "IOB2",
        "--seed", "0", "--epochs", "1", "--eval-interval", "50",
        "--char-dim", "8", "--char-hidden", "8", "--word-hidden", "16",
        "--head-hidden", "16", "--out", out,
    ])
    assert code == 0
    shared_model = load_model(out)[0]
    word_model = load_model(pretrained_path)[0]
    sc = shared_model.parameter_counts()
    wc = word_model.parameter_counts()
    assert sc["word_level"] * 2 == wc["word_level"]
    assert sc["char_level"] * 2 == wc["char_level"]
    _, tensors = load_checkpoint(out)
    recurrent = [n for n in tensors if ".word." in n or ".char." in n]
    assert all(".f." in n for n in recurrent)  # no .b tensors when tied


@pytest.fixture(scope="module")
def finetuned(workdir, pretrained_path):
    out_prefix = str(workdir["root"] / "augmented")
    manifest_path = str(workdir["root"] / "manifest.json")
    code = main([
        "finetune", "--checkpoint", pretrained_path, "--src-train",
        workdir["src_train"], "--tgt-train", workdir["tgt_train"],
        "--src-dev", workdir["src_dev"], "--tgt-dev", workdir["tgt_dev"],
        "--tgt-test", workdir["tgt_test"], "--input-scheme", "IOB2",
        "--select", "tgt_dev", "--seeds", "0,1", "--rounds", "2",
        "--n-steps", "10", "--eval-interval", "10",
        "--out", out_prefix, "--manifest", manifest_path,
    ])
    assert code == 0
    return out_prefix, manifest_path


def test_finetune_manifest(finetuned):
    _, manifest_path = finetuned
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["seeds"] == [0, 1]
    assert set(manifest["metrics"]) == {"0", "1"}
    assert "aggregate" in manifest
    agg = manifest["aggregate"]["tgt_dev"]
    assert set(agg) == {"mean", "std", "max"}
    assert manifest["selected_checkpoint"].endswith(".zrx")


def test_finetune_checkpoint_reloads_with_structure(finetuned):
    out_prefix, _ = finetuned
    model, config, tables, raw = load_model(out_prefix + ".seed0.zrx")
    assert config.variant == "cross_augmented"
    assert set(model.encoders) == {"src", "tgt"}
    assert model.cfg.tied is False  # inherited from the cross_word base
    assert model.named_parameters("src")["head.tag_w"] is \
        model.named_parameters("tgt")["head.tag_w"]


def test_finetune_version_mismatch_exit_3(workdir, pretrained_path, tmp_path):
    import hashlib

    with open(pretrained_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[4] ^= 0xFF  # bump the version field
    payload = bytes(blob[:-8])
    blob[-8:] = hashlib.sha256(payload).digest()[:8]
    bad = tmp_path / "bad.zrx"
    bad.write_bytes(bytes(blob))
    code = main([
        "finetune", "--checkpoint", str(bad), "--src-train",
        workdir["src_train"], "--tgt-train", workdir["tgt_train"],
        "--src-dev", workdir["src_dev"], "--select", "src_dev",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3


@pytest.mark.parametrize("offset, message", [
    (14, "truncated tensor name"), (19, "tensor rank 2147483648 is not supported")])
def test_checkpoint_field_past_the_end_exit_3(tmp_path, capsys, offset, message):
    # a checksum-valid file whose name length or rank is 2**31; offsets
    # 14 and 19 are those fields of the one tensor when the config is empty
    import hashlib

    path = tmp_path / "m.zrx"
    save_checkpoint(path, {}, {"t": np.ones(2)})
    payload = bytearray(path.read_bytes()[:-8])
    payload[offset:offset + 4] = (2**31).to_bytes(4, "little")
    path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest()[:8])
    code = main(["project", "--checkpoint", str(path), "--out",
                 str(tmp_path / "p.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"artifact error: {message}\n"


@pytest.mark.parametrize("command", ["align", "pretrain", "finetune"])
def test_malformed_config_line_exit_2(workdir, pretrained_path, tmp_path,
                                      capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("garbage\n")
    inputs = {
        "align": ["--src-emb", workdir["src_emb"], "--tgt-emb",
                  workdir["tgt_emb"]],
        "pretrain": ["--train", workdir["src_train"], "--dev",
                     workdir["src_dev"], "--src-emb", workdir["src_emb"],
                     "--variant", "source_mono"],
        "finetune": ["--checkpoint", pretrained_path, "--src-train",
                     workdir["src_train"], "--tgt-train", workdir["tgt_train"],
                     "--src-dev", workdir["src_dev"]],
    }[command]
    code = main([command, *inputs, "--config", str(cfg), "--out",
                 str(tmp_path / "out.zrx")])
    assert code == 2
    assert capsys.readouterr().err == "error: malformed config line 'garbage'\n"
    assert not list(tmp_path.glob("out*"))


def test_tag_round_trip_and_eval_consistency(workdir, pretrain_run,
                                             tmp_path, capsys):
    pretrained_path, pretrain_printed = pretrain_run
    tagged = tmp_path / "tagged.conll"
    code = main([
        "tag", "--checkpoint", pretrained_path, "--input",
        workdir["tgt_dev"], "--output", str(tagged), "--language", "tgt",
        "--to-iob2",
    ])
    assert code == 0
    with open(tagged) as fh:
        again = read_conll(fh, scheme=IOB2)
    assert again.size == 60
    assert all(s.tags is not None for s in again)

    # external eval on the tagged file equals the internal dev score, which
    # training computed against the f64 tables the checkpoint stores as f32
    capsys.readouterr()
    code = main([
        "eval", "--gold", workdir["tgt_dev"], "--pred", str(tagged),
        "--scheme", "IOB2",
    ])
    assert code == 0
    internal = dict(line.split("\t") for line in pretrain_printed.splitlines()
                    if "\t" in line)
    external = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert ["ALL", internal["tgt_dev"]] == [external[1][0], external[1][3]]


def test_tag_empty_input(workdir, pretrained_path, tmp_path):
    empty_in = tmp_path / "empty.conll"
    empty_in.write_text("")
    out = tmp_path / "empty_out.conll"
    code = main([
        "tag", "--checkpoint", pretrained_path, "--input", str(empty_in),
        "--output", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        assert read_conll(fh).size == 0


def test_eval_perfect_and_half(workdir, tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("a B-PER\nb O\n\nc B-LOC\nd O\n\n")
    code = main(["eval", "--gold", str(gold), "--pred", str(gold)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ALL\t100.00\t100.00\t100.00" in out

    half = tmp_path / "half.conll"
    half.write_text("a B-PER\nb O\n\nc B-ORG\nd O\n\n")
    code = main(["eval", "--gold", str(gold), "--pred", str(half)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ALL\t50.00\t50.00\t50.00" in out


def test_eval_column_flags_read_middle_columns(tmp_path, capsys):
    text = "tok1 NNP B-PER\ntok2 V O\n\n"
    gold = tmp_path / "gold.conll"
    gold.write_text(text)
    pred = tmp_path / "pred.conll"
    pred.write_text(text)
    code = main([
        "eval", "--gold", str(gold), "--pred", str(pred),
        "--token-col", "0", "--tag-col", "2",
    ])
    assert code == 0
    assert "ALL\t100.00" in capsys.readouterr().out
    # default tag column (last) reads the POS column and still parses;
    # an out-of-range explicit column is a usage error
    code = main([
        "eval", "--gold", str(gold), "--pred", str(pred), "--tag-col", "7",
    ])
    assert code == 2


def test_eval_alignment_mismatch_exit_2(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("a O\n\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("b O\n\n")
    code = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    assert code == 2
    assert "sentence 0" in capsys.readouterr().err


def test_eval_curve_export_matches_hand_tally(tmp_path):
    gold = tmp_path / "gold.conll"
    gold.write_text("a B-PER\nb O\n\nc O\nd O\ne O\nf O\ng O\nh O\n\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("a O\nb O\n\nc O\nd O\ne O\nf O\ng O\nh O\n\n")
    curve = tmp_path / "curve.tsv"
    code = main([
        "eval", "--gold", str(gold), "--pred", str(pred),
        "--curve-out", str(curve), "--buckets", "5",
    ])
    assert code == 0
    rows = dict(
        line.split("\t") for line in curve.read_text().splitlines()
    )
    assert float(rows["1-5"]) == pytest.approx(1 / 2)  # 1 of 2 tokens right
    assert float(rows["6-10"]) == pytest.approx(1.0)


def test_project_from_vec(workdir, tmp_path):
    out = tmp_path / "proj.csv"
    manifest = tmp_path / "proj.json"
    code = main([
        "project", "--emb", workdir["src_emb"], "--limit", "50",
        "--out", str(out), "--manifest", str(manifest),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["word", "x", "y", "tag"]
    assert len(rows) == 51
    coords = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert coords[:, 0].var() >= coords[:, 1].var()
    meta = json.loads(manifest.read_text())
    assert meta["method"] == "pca"
    # reconstruction error equals total variance minus the top-2 spectrum
    fx = workdir["fx"]
    vectors = fx.src_emb.vectors[:50]
    centered = vectors - vectors.mean(axis=0)
    cov = centered.T @ centered / 50
    eigs = np.linalg.eigvalsh(cov)[::-1]
    residual = meta["total_variance"] - sum(meta["explained_variance"])
    assert residual == pytest.approx(eigs[2:].sum(), abs=1e-8)


@pytest.mark.parametrize("rows", [7, 16000])
def test_project_checkpoint_centres_float32_rows_in_one_float64_copy(
        tmp_path, monkeypatch, rows):
    import zrxner.cli as cli_mod

    dim = 128
    rng = np.random.default_rng(rows)
    vectors = rng.normal(size=(rows, dim)) * rng.random(dim) + rng.normal(size=dim)
    cfg = TrainingConfig()
    model = Tagger(cfg.tagger_config(dim, ["O", "S-X"]),
                   {"<pad>": 0, "<unk>": 1}, Rng(0))
    path = str(tmp_path / "m.zrx")
    save_model(path, model, cfg, {
        "src": EmbeddingTable([f"w{i}" for i in range(rows)], vectors)})

    def run(name):
        out, manifest = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert main(["project", "--checkpoint", path, "--language", "src",
                     "--limit", str(rows), "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        return out.read_bytes(), manifest.read_bytes()

    tracemalloc.start()
    try:
        direct = run("direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bytes of centring a float64 copy of the float32 rows
    pca = cli_mod._pca_2d
    monkeypatch.setattr(cli_mod, "_pca_2d",
                        lambda v: pca(np.asarray(v, dtype=np.float64)))
    assert direct == run("widened")
    if rows > 1000:
        # the float32 table and one float64 copy (4 + 8 bytes a cell), with
        # room for 4 more; a second float64 copy would need 8
        assert peak < (4 + 8 + 4) * rows * dim


def test_project_tags_follow_the_conll_line_and_column_rule(tmp_path):
    # a word may hold a no-break space or a "\r", in the table and the tags
    vec = tmp_path / "t.vec"
    vec.write_bytes("3 2\na\u00a0b 1 0\nc\rd 0 1\ne 1 1\n".encode())
    tags = tmp_path / "tags.txt"
    tags.write_bytes("a\u00a0b B-PER\nc\rd\tI-LOC\r\n\ne\n".encode())
    out = tmp_path / "proj.csv"
    code = main(["project", "--emb", str(vec), "--tags", str(tags),
                 "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[3]) for r in rows] == [
        ("a\u00a0b", "B-PER"), ("c\rd", "I-LOC"), ("e", "")]


def test_project_2d_input_is_identity_up_to_rotation(tmp_path):
    vec = tmp_path / "two.vec"
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 2))
    lines = ["20 2"] + [
        f"w{i} {x:.8f} {y:.8f}" for i, (x, y) in enumerate(pts)
    ]
    vec.write_text("\n".join(lines) + "\n")
    out = tmp_path / "proj.csv"
    code = main(["project", "--emb", str(vec), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    coords = np.array([[float(r[1]), float(r[2])] for r in rows])
    # distances to the centroid are preserved by a rigid 2-D projection
    pts_unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    centered = pts_unit - pts_unit.mean(axis=0)
    np.testing.assert_allclose(
        np.sort(np.linalg.norm(coords, axis=1)),
        np.sort(np.linalg.norm(centered, axis=1)),
        atol=1e-6,
    )


def test_vec_word_with_carriage_return_round_trips(tmp_path):
    table = EmbeddingTable(["a\rb", "c"], [[0.6, 0.8], [1.0, 0.0]])
    path = tmp_path / "cr.vec"
    with open(path, "w", encoding="utf-8") as fh:
        write_vec_text(table, fh)
    loaded = _load_table(str(path), None, "src")
    assert loaded.words == ["a\rb", "c"]
    np.testing.assert_allclose(loaded.vectors, table.vectors, atol=1e-6)


def test_vec_crlf_file_loads_like_lf(tmp_path):
    # fastText rows end in a space before the line end
    rows = ["2 3", "w1 0.5 -1.25 2.0 ", "w2 1.0 0.0 0.0 "]
    lf, crlf = tmp_path / "lf.vec", tmp_path / "crlf.vec"
    lf.write_bytes("\n".join(rows).encode() + b"\n")
    crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
    want = _load_table(str(lf), None, "src")
    got = _load_table(str(crlf), None, "src")
    assert got.words == want.words == ["w1", "w2"]
    np.testing.assert_array_equal(got.vectors, want.vectors)


# Loading the two tables of align and pretrain at once must give what
# _load_table gives called twice, source first, in every outcome.
TABLE_TEXTS = {
    "plain": b"3 2\na 1 0\nb 0 2\nc 3 4\n",
    "duplicates": b"4 2\na 1 0\nb 0 2\na 5 5\nc 3 4\n",
    "overstated header": b"9 2\na 1 0\nb 0 2\n",
    "crlf": b"2 3\r\nw1 0.5 -1.25 2.0 \r\nw2 1.0 0.0 0.0 \r\nw\r3 0 0 1\r\n",
    "no rows": b"0 4\n",
    "zero row": b"2 2\nz 0 0\ny -3 4\n",
}
TABLE_ERRORS = {  # what is written to the path, and the message it gives
    "parse": (b"3 2\na 1 0\nb 1 x\nc 0 1\n",
              "error: line 3: non-numeric vector entry\n"),
    "utf8": (b"2 2\na 1 0\n\xff 0 1\n",
             "error: input is not valid UTF-8: invalid start byte (byte 0xff)\n"),
    "missing": (None, "No such file or directory\n"),
    "non-finite": (b"2 2\na 1 0\nb nan 1\n",
                   "error: non-finite vector entries\n"),
}


def _write_table_file(path, data):
    if data is not None:
        path.write_bytes(data)
    return str(path)


def _large_table_text(seed, rows, dim):
    # more rows than one parser chunk, and more bytes than a pipe buffer
    rng = np.random.default_rng(seed)
    table = EmbeddingTable([f"w{seed}.{i}" for i in range(rows)],
                           rng.normal(size=(rows, dim)))
    buf = io.StringIO()
    write_vec_text(table, buf, fmt="%.17g")
    return buf.getvalue().encode()


def _assert_same_table(got, want):
    assert got.words == want.words and got.language == want.language
    assert got.vectors.dtype == want.vectors.dtype
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("limit", [None, 2, 2000])
@pytest.mark.parametrize("src_case, tgt_case", [
    ("plain", "duplicates"), ("duplicates", "overstated header"),
    ("overstated header", "crlf"), ("crlf", "no rows"),
    ("no rows", "zero row"), ("zero row", "plain"), ("large", "large"),
    ("plain", None), ("large", None),  # None: the same path for both
])
def test_two_table_load_matches_loading_each_in_turn(tmp_path, limit, src_case,
                                                     tgt_case):
    texts = {**TABLE_TEXTS, "large": _large_table_text(1, 3000, 7)}
    src = _write_table_file(tmp_path / "s.vec", texts[src_case])
    tgt = src if tgt_case is None else _write_table_file(
        tmp_path / "t.vec", texts[tgt_case] if tgt_case != "large"
        else _large_table_text(2, 2500, 7))
    got = _load_tables(src, tgt, limit)
    _assert_no_child_left()
    want = _load_table(src, limit, "src"), _load_table(tgt, limit, "tgt")
    for g, w in zip(got, want):
        _assert_same_table(g, w)


def _align_outcome(src, tgt, out, capsys):
    code = main(["align", "--src-emb", src, "--tgt-emb", tgt, "--out", out,
                 "--w-steps", "0", "--refine-iters", "0"])
    return code, capsys.readouterr()


@pytest.mark.parametrize("src_case, tgt_case", [
    *[(case, None) for case in TABLE_ERRORS],
    *[(None, case) for case in TABLE_ERRORS],
    ("parse", "utf8"), ("utf8", "missing"), ("missing", "non-finite"),
    ("non-finite", "parse"),
])
def test_two_table_load_error_is_the_one_of_loading_each_in_turn(
        tmp_path, capsys, monkeypatch, src_case, tgt_case):
    good = TABLE_TEXTS["plain"]
    src = _write_table_file(
        tmp_path / "s.vec", good if src_case is None else TABLE_ERRORS[src_case][0])
    tgt = _write_table_file(
        tmp_path / "t.vec", good if tgt_case is None else TABLE_ERRORS[tgt_case][0])
    out = str(tmp_path / "m.zrx")
    code, captured = _align_outcome(src, tgt, out, capsys)
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")  # _load_table on the source, then the target
    assert (code, captured) == _align_outcome(src, tgt, out, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err.endswith(TABLE_ERRORS[src_case or tgt_case][1])
    assert captured.err.count("\n") == 1 and not os.path.exists(out)


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_two_table_load_warning_is_shown_here(tmp_path, side):
    # a row whose squared norm overflows warns while it is normalized
    texts = {"src": TABLE_TEXTS["plain"], "tgt": TABLE_TEXTS["plain"]}
    texts[side] = b"2 2\nbig 1e200 1e200\nsmall 3 4\n"
    src = _write_table_file(tmp_path / "s.vec", texts["src"])
    tgt = _write_table_file(tmp_path / "t.vec", texts["tgt"])
    with pytest.warns(RuntimeWarning, match="overflow") as record:
        got = _load_tables(src, tgt, None)
    _assert_no_child_left()
    with pytest.warns(RuntimeWarning, match="overflow") as want_record:
        want = _load_table(src, None, "src"), _load_table(tgt, None, "tgt")
    assert ([str(w.message) for w in record]
            == [str(w.message) for w in want_record])
    for g, w in zip(got, want):
        _assert_same_table(g, w)


def test_two_table_load_reads_a_target_pipe_once(tmp_path, monkeypatch):
    # a child that failed on a pipe would leave nothing to load again
    src = _write_table_file(tmp_path / "s.vec", TABLE_TEXTS["plain"])
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a pipe"))
    writer = threading.Thread(
        target=lambda: fifo.write_bytes(TABLE_ERRORS["parse"][0]), daemon=True)
    writer.start()
    try:
        with pytest.raises(ParseError, match="line 3: non-numeric"):
            _load_tables(src, str(fifo), None)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


def _die(path, limit, language):
    os.kill(os.getpid(), signal.SIGKILL)


def _fail_while_sending(path, limit, language):
    table = _load_table(path, limit, language)
    table.vectors = np.asfortranarray(table.vectors)  # no buffer to write
    return table


@pytest.mark.parametrize("child_load", [_die, _fail_while_sending])
def test_two_table_load_child_failure_loads_the_target_here(
        tmp_path, monkeypatch, child_load):
    import zrxner.cli as cli_mod

    src = _write_table_file(tmp_path / "s.vec", _large_table_text(3, 1500, 4))
    tgt = _write_table_file(tmp_path / "t.vec", _large_table_text(4, 1200, 4))
    parent = os.getpid()
    calls = []

    def load(path, limit, language):
        if os.getpid() != parent:
            return child_load(path, limit, language)
        calls.append(language)
        return _load_table(path, limit, language)

    monkeypatch.setattr(cli_mod, "_load_table", load)
    got = _load_tables(src, tgt, None)
    _assert_no_child_left()
    assert calls == ["src", "tgt"]
    for g, w in zip(got, (_load_table(src, None, "src"),
                          _load_table(tgt, None, "tgt"))):
        _assert_same_table(g, w)


@pytest.mark.parametrize("target", ["good", "missing"])
def test_two_table_load_child_flushes_nothing_of_the_parent(tmp_path, target):
    # With stdout a buffered pipe, text printed before the fork sits in a
    # buffer that the child holds a copy of. A missing target fails the
    # child while this process still parses the larger source table.
    src = _write_table_file(tmp_path / "s.vec", _large_table_text(5, 4000, 20))
    tgt = _write_table_file(tmp_path / "t.vec", _large_table_text(6, 10, 20)
                            if target == "good" else None)
    out = str(tmp_path / "m.zrx")
    script = ("import sys\nfrom zrxner.cli import main\n"
              "print('before loading')\nsys.exit(main(sys.argv[1:]))\n")
    src_dir = os.path.dirname(os.path.dirname(zrxner.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, *(f"-W{opt}" for opt in sys.warnoptions), "-c",
         script, "align", "--src-emb", src, "--tgt-emb", tgt, "--out", out,
         "--w-steps", "0", "--refine-iters", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=300)
    assert res.stdout.count("before loading") == 1
    if target == "good":
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.count("mapper saved to") == 1
    else:
        assert res.returncode == 2
        assert res.stderr == f"error: {tgt}: No such file or directory\n"


def test_conll_crlf_file_reads_like_lf(tmp_path):
    rows = ["-DOCSTART- O", "", "Jo\rhn B-PER", "runs O", "", "x\tO"]
    lf, crlf = tmp_path / "lf.conll", tmp_path / "crlf.conll"
    lf.write_bytes("\n".join(rows).encode() + b"\n")
    crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
    want = _read_dataset(str(lf), "src", "train", IOB2)
    got = _read_dataset(str(crlf), "src", "train", IOB2)
    assert [s.tokens for s in want] == [["Jo\rhn", "runs"], ["x"]]
    assert [s.tokens for s in got] == [s.tokens for s in want]
    assert [s.tags for s in got] == [s.tags for s in want]


def test_numerical_failure_maps_to_exit_4(workdir, monkeypatch):
    import zrxner.cli as cli_mod
    from zrxner.errors import NumericalError

    def exploding(args):
        raise NumericalError("loss went non-finite")

    monkeypatch.setattr(cli_mod, "cmd_align", exploding)
    parser = cli_mod.build_parser()
    args = parser.parse_args([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--out", "/dev/null",
    ])
    args.func = exploding
    try:
        code = args.func(args)
    except NumericalError:
        code = None
    assert code is None  # the command itself raises
    # and main() converts it into exit code 4
    monkeypatch.setattr(
        cli_mod, "build_parser", lambda: _stub_parser(exploding)
    )
    assert cli_mod.main(["align"]) == 4


def _stub_parser(func):
    import argparse

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("align")
    p.set_defaults(func=func)
    return parser


def test_finetune_zero_rounds_outputs_theta_s_with_fresh_copy(
        workdir, pretrained_path, tmp_path):
    out_prefix = str(tmp_path / "zero")
    code = main([
        "finetune", "--checkpoint", pretrained_path, "--src-train",
        workdir["src_train"], "--tgt-train", workdir["tgt_train"],
        "--src-dev", workdir["src_dev"], "--input-scheme", "IOB2",
        "--select", "src_dev", "--seeds", "0", "--rounds", "0",
        "--out", out_prefix,
    ])
    assert code == 0
    model, _, _, _ = load_model(out_prefix + ".seed0.zrx")
    base, _, _, _ = load_model(pretrained_path)
    src = model.named_parameters("src")
    tgt = model.named_parameters("tgt")
    orig = base.named_parameters("src")
    for name in orig:
        np.testing.assert_array_equal(src[name], orig[name])
    np.testing.assert_array_equal(
        tgt["enc.tgt.word.f.w"], src["enc.src.word.f.w"]
    )


def test_config_file_overridden_by_flags(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs=1\ntrain.word_hidden=16\n"
                   "train.char_dim=8\ntrain.char_hidden=8\n"
                   "train.head_hidden=16\ntrain.eval_interval=50\n")
    out = tmp_path / "m.zrx"
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"],
        "--variant", "source_mono", "--scheme", "IOBES",
        "--input-scheme", "IOB2", "--config", str(cfg),
        "--epochs", "2", "--out", str(out),
    ])
    assert code == 0
    _, config, _, raw = load_model(str(out))
    assert config.epochs == 2  # flag wins over the file
    assert config.word_hidden == 16  # file value survives
    assert raw["train.epochs"] == "2"  # effective config embedded


def test_tag_missing_checkpoint_exit_2(workdir, tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.zrx")
    code = main([
        "tag", "--checkpoint", missing, "--input", workdir["tgt_dev"],
        "--output", str(tmp_path / "out.conll"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and missing in err
    assert "Traceback" not in err


def test_tag_missing_input_exit_2(pretrained_path, tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.conll")
    code = main([
        "tag", "--checkpoint", pretrained_path, "--input", missing,
        "--output", str(tmp_path / "out.conll"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and missing in err
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize("line", [
    "train.epochs=abc", "train.dropout=1.0", "train.eval_interval=0",
    "train.constrained_decoding=maybe",
])
def test_pretrain_bad_config_value_exit_2(workdir, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"],
        "--variant", "source_mono", "--config", str(cfg),
        "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    assert line.split("=")[0] in capsys.readouterr().err


def test_pretrain_direction_is_not_a_config_key(workdir, tmp_path, capsys):
    # the direction comes from the mapper alone
    cfg = tmp_path / "old.cfg"
    cfg.write_text("train.direction=t_to_s\n")
    code = main([
        "pretrain", "--train", workdir["src_train"], "--dev",
        workdir["src_dev"], "--src-emb", workdir["src_emb"],
        "--variant", "source_mono", "--config", str(cfg),
        "--out", str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    assert "direction" in capsys.readouterr().err


def test_align_non_numeric_config_value_exit_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("align.w_steps=abc\n")
    code = main([
        "align", "--src-emb", workdir["src_emb"], "--tgt-emb",
        workdir["tgt_emb"], "--config", str(cfg), "--out",
        str(tmp_path / "m.zrx"),
    ])
    assert code == 2
    assert "align.w_steps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_select_split_not_evaluated_exit_2(workdir, pretrained_path, tmp_path,
                                           capsys, command):
    # --select tgt_dev without --tgt-dev fails before the first batch
    if command == "pretrain":
        argv = [
            "pretrain", "--train", workdir["src_train"], "--dev",
            workdir["src_dev"], "--src-emb", workdir["src_emb"],
            "--variant", "source_mono", "--epochs", "12",
        ]
    else:
        argv = [
            "finetune", "--checkpoint", pretrained_path, "--src-train",
            workdir["src_train"], "--tgt-train", workdir["tgt_train"],
            "--src-dev", workdir["src_dev"],
        ]
    code = main(argv + [
        "--input-scheme", "IOB2", "--select", "tgt_dev",
        "--log", str(tmp_path / "run.log"), "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert "tgt_dev is not evaluated" in capsys.readouterr().err
    for log in tmp_path.glob("run.log*"):
        assert log.read_text() == ""
    assert not list(tmp_path.glob("*.zrx"))


# Every option of every subcommand, by the type its value parses to; a
# "switch" takes no value.
FLAG_SURFACE = {
    "align": {
        "str": "src-emb tgt-emb direction out dict-out log config",
        "int": "seed refine-iters limit w-steps disc-steps batch-size "
               "disc-hidden vocab-cap csls-k dict-top-n restarts",
    },
    "pretrain": {
        "str": "train dev tgt-dev tgt-test src-emb tgt-emb mapper variant "
               "scheme input-scheme select out log config",
        "int": "token-col tag-col seed epochs batch-size eval-interval "
               "char-dim char-hidden word-hidden head-hidden limit",
        "float": "dropout lr0",
        "switch": "constrained",
    },
    "finetune": {
        "str": "checkpoint src-train tgt-train src-dev tgt-dev tgt-test "
               "tgt-emb mapper select seeds input-scheme out manifest log "
               "config",
        "int": "rounds n-steps patience eval-interval token-col tag-col",
    },
    "tag": {
        "str": "checkpoint input output language",
        "int": "token-col seed",
        "switch": "to-iob2",
    },
    "eval": {
        "str": "gold pred scheme curve-out",
        "int": "buckets token-col tag-col seed",
    },
    "project": {
        "str": "emb checkpoint language tags out manifest",
        "int": "limit seed",
    },
}


def test_flag_surface_of_every_subcommand():
    import argparse

    from zrxner.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_SURFACE)
    total = 0
    for command, parser in sub.choices.items():
        got = {}
        for action in parser._actions:
            if action.option_strings == ["-h", "--help"]:
                continue
            kind = "switch" if action.nargs == 0 else (action.type or str).__name__
            got.setdefault(kind, set()).update(
                opt[2:] for opt in action.option_strings)
            total += 1
        want = {kind: set(names.split()) for kind, names in
                FLAG_SURFACE[command].items()}
        assert got == want, command
    assert total == 90


def _tiny_vec(path):
    path.write_text("4 2\na 1 0\nb 0 1\nc 1 1\nd 1 -1\n")
    return str(path)


def test_align_config_flags_reach_the_mapper(tmp_path):
    # every align config flag, at a value other than its default
    flags = {"w-steps": "3", "disc-steps": "2", "batch-size": "4",
             "disc-hidden": "5", "vocab-cap": "3", "csls-k": "2",
             "dict-top-n": "2", "restarts": "2"}
    cfg = tmp_path / "a.cfg"
    cfg.write_text("align.beta=0.02\nalign.w_steps=9\n")
    out = tmp_path / "m.zrx"
    code = main(["align", "--src-emb", _tiny_vec(tmp_path / "s.vec"),
                 "--tgt-emb", _tiny_vec(tmp_path / "t.vec"), "--config",
                 str(cfg), "--refine-iters", "0", "--out", str(out)]
                + [arg for flag, value in flags.items()
                   for arg in (f"--{flag}", value)])
    assert code == 0
    _, raw = load_mapper(str(out))
    for flag, value in flags.items():
        assert raw["align." + flag.replace("-", "_")] == value, flag
    assert raw["align.beta"] == "0.02"  # the file value survives
    assert len([key for key in raw if key.startswith("align.")]) == 16


@pytest.fixture(scope="module")
def flagged_pretrain(workdir):
    """A pretrain run with every train config flag off its default: (the
    checkpoint path, each flag's field and the value it embeds)."""
    root = workdir["root"]
    flags = {
        "variant": ("variant", "source_mono"), "scheme": ("scheme", "IOB2"),
        "select": ("selection", "tgt_dev"), "seed": ("seed", "3"),
        "epochs": ("epochs", "1"), "batch-size": ("batch_size", "8"),
        "eval-interval": ("eval_interval", "7"),
        "dropout": ("dropout", "0.25"), "lr0": ("lr0", "0.05"),
        "char-dim": ("char_dim", "4"), "char-hidden": ("char_hidden", "3"),
        "word-hidden": ("word_hidden", "6"),
        "head-hidden": ("head_hidden", "5"), "limit": ("emb_limit", "150"),
    }
    out = str(root / "flagged.zrx")
    code = main(["pretrain", "--train", workdir["src_train"], "--dev",
                 workdir["src_dev"], "--tgt-dev", workdir["tgt_dev"],
                 "--src-emb", workdir["src_emb"], "--tgt-emb",
                 workdir["tgt_emb"], "--input-scheme", "IOB2",
                 "--constrained", "--out", out]
                + [arg for flag, (_, value) in flags.items()
                   for arg in (f"--{flag}", value)])
    assert code == 0
    flags["constrained"] = ("constrained_decoding", "True")
    return out, flags


def test_pretrain_config_flags_reach_the_checkpoint(flagged_pretrain):
    path, flags = flagged_pretrain
    raw = load_checkpoint(path)[0]
    for flag, (name, value) in flags.items():
        assert raw["train." + name] == value, flag
    assert len([key for key in raw if key.startswith("train.")]) == 23


def test_finetune_config_flags_reach_the_checkpoint(workdir, flagged_pretrain,
                                                    tmp_path):
    flags = {"select": ("selection", "src_dev"), "rounds": ("rounds", "1"),
             "n-steps": ("n_steps", "2"), "patience": ("patience", "1"),
             "eval-interval": ("eval_interval", "3")}
    out = str(tmp_path / "ft")
    code = main(["finetune", "--checkpoint", flagged_pretrain[0],
                 "--src-train", workdir["src_train"], "--tgt-train",
                 workdir["tgt_train"], "--src-dev", workdir["src_dev"],
                 "--input-scheme", "IOB2", "--seeds", "4", "--out", out,
                 "--manifest", str(tmp_path / "ft.json")]
                + [arg for flag, (_, value) in flags.items()
                   for arg in (f"--{flag}", value)])
    assert code == 0
    raw = load_checkpoint(out + ".seed4.zrx")[0]
    manifest = json.loads((tmp_path / "ft.json").read_text())["config"]
    for flag, (name, value) in flags.items():
        assert raw["train." + name] == value, flag
        assert manifest["train." + name] == value, flag
    # what finetune was not told stays as pretrain embedded it
    assert raw["train.word_hidden"] == "6" and raw["train.seed"] == "4"
