"""Batch command-line interface.

Subcommands: align, pretrain, finetune, tag, eval, project. align and
pretrain take --seed, finetune takes --seeds; tag, eval and project accept
--seed and ignore it, as they are deterministic. align, pretrain and
finetune read an optional --config file of flat key=value lines (flags
override the file); the effective configuration is embedded in every
checkpoint written, and a trained checkpoint holds the selected state.
Each config flag is derived from a field of AlignConfig or TrainingConfig
(_config_flags), which also own the flat form and the range checks.
Exit codes: 0 success, 2 input or usage error (an input that is not UTF-8
included), 3 artifact or version error, 4 numerical failure.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import align as al
from . import workers
from .checkpoint import text_to_config
from .corpus import (
    IOB2,
    Dataset,
    _columns,
    build_char_vocab,
    convert_scheme,
    correct_tag_ratio_by_length,
    entity_f1,
    iter_lines,
    read_conll,
    write_conll,
)
from .embeddings import (
    DEFAULT_LOAD_LIMIT,
    EmbeddingTable,
    load_vec_text,
    select_rows,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    NumericalError,
    UsageError,
)
from .numeric import Rng, svd_square
from .persist import load_mapper, load_model, save_mapper, save_model
from .trainer import (
    EvalSet,
    TrainingConfig,
    augmented_finetune,
    common_space_tables,
    multi_seed_report,
    pretrain_source,
    restore_state,
    snapshot_state,
)
from .tagger import Tagger, predict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ARTIFACT = 3
EXIT_NUMERIC = 4


def _read_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return text_to_config(fh.read(), error=UsageError)


def _config(cls, file_cfg, args):
    """The config cls from the `cls.PREFIX.` entries of the file config and
    then the config flags given on the command line; every key must name a
    field of cls."""
    prefix = cls.PREFIX + "."
    flat = {k: v for k, v in file_cfg.items() if k.startswith(prefix)}
    for name, dest in args.config_flags.items():
        value = getattr(args, dest)
        if value is not None:
            flat[prefix + name] = str(value)
    known = {prefix + f.name for f in fields(cls)}
    for key in flat:
        if key not in known:
            raise UsageError(f"unknown {cls.PREFIX} config key {key[len(prefix):]!r}")
    return cls.from_flat(flat)


def _load_table(path, limit, language):
    """The table at path with unit rows, in float32 (load_vec_text's
    unit=True)."""
    # split lines at "\n" only, so a "\r" inside a word stays in the word
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return load_vec_text(fh, limit=limit, language=language, unit=True)


def _table_arrays(path, limit, language):
    """_load_table(path, limit, language) as arrays for a workers.Child to
    send: its words, "\n"-joined UTF-8, and its rows."""
    table = _load_table(path, limit, language)
    text = "\n".join(table.words).encode("utf-8")
    return [np.frombuffer(text, dtype=np.uint8), table.vectors]


def _load_tables(src_path, tgt_path, limit):
    """_load_table of the source ("src") and the target ("tgt") table, the
    two parsed at once: a forked child (`workers.Child`) parses the target
    table while this process parses the source one, then sends its words
    and normalized rows through a pipe that this process reads straight into
    the final array. Where the child fails, dies or cannot be started, this
    process loads the target table itself, so an error is the one loading
    the two in turn raises, the source's first. A target that is not a
    regular file (a pipe, say) can be read only once, so it is loaded here,
    after the source.
    """
    if not os.path.isfile(tgt_path):
        return (_load_table(src_path, limit, "src"),
                _load_table(tgt_path, limit, "tgt"))
    with workers.Child(_table_arrays, tgt_path, limit, "tgt") as child:
        src = _load_table(src_path, limit, "src")
        sent = child.result()
    if sent is None:
        return src, _load_table(tgt_path, limit, "tgt")
    text, vectors = sent
    words = text.tobytes().decode("utf-8").split("\n") if len(vectors) else []
    return src, EmbeddingTable(words, vectors, "tgt")


def _read_dataset(path, language, role, scheme, tag_col=-1, token_col=0):
    # split lines at "\n" only; read_conll also drops the "\r" of "\r\n"
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return read_conll(fh, token_col=token_col, tag_col=tag_col,
                          language=language, role=role, scheme=scheme)


def _read_early(path, *args, **kwargs):
    """_read_dataset(path, ...), or the error that reading it raised, or
    None without a path. A command reads its inputs this way before its
    checkpoint, so that the tables hold only the rows that their tokens
    read, and raises an input's error (`_read`) after every fault of the
    checkpoint, where it used to read that input."""
    if not path:
        return None
    try:
        return _read_dataset(path, *args, **kwargs)
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        return exc


def _read(early):
    """The dataset that _read_early read, or its error raised."""
    if isinstance(early, Exception):
        raise early
    return early


def _tokens(*early):
    """The set of the tokens of the datasets that _read_early read; an
    input that could not be read has none."""
    return {token for dataset in early if isinstance(dataset, Dataset)
            for sent in dataset for token in sent.tokens}


def _convert_dataset(dataset, to_scheme):
    if dataset.scheme == to_scheme:
        return dataset
    for sent in dataset:
        if sent.tags is not None:
            sent.tags = convert_scheme(sent.tags, dataset.scheme, to_scheme)
    dataset.scheme = to_scheme
    return dataset


def _progress_row(record):
    loss_s, loss_ts, loss_tt = record.losses
    return (f"{record.step}\t{loss_s:.6f}\t{loss_ts:.6f}\t{loss_tt:.6f}"
            f"\t{record.lr:.6f}\t"
            + "\t".join(f"{k}={v:.4f}" for k, v in sorted(record.scores.items())))


def _environment_entries():
    """workers.numeric_environment() as the `numeric.` config entries that
    every checkpoint and mapper records; no loader reads them."""
    return {f"numeric.{key}": value
            for key, value in workers.numeric_environment().items()}


@contextlib.contextmanager
def _log_file(path):
    """Open the --log file at path, if any, for the block and yield `sink`:
    sink(row) is the stage callback that writes the row formatter's
    row(item) as one line, or None without a path."""
    if not path:
        yield lambda row: None
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda row: lambda item: fh.write(row(item) + "\n")


# ---------------------------------------------------------------------------
# align


def _at_least(flag, value, least):
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


def cmd_align(args):
    _at_least("--limit", args.limit, 1)
    config = _config(al.AlignConfig, _read_config_file(args.config), args)
    _at_least("--refine-iters", args.refine_iters, 0)
    src, tgt = _load_tables(args.src_emb, args.tgt_emb, args.limit)
    if args.direction == "s2t":
        space, moving, direction = tgt, src, al.S_TO_T
    else:
        space, moving, direction = src, tgt, al.T_TO_S
    rng = Rng(args.seed)
    with _log_file(args.log) as sink:
        mapper = al.adversarial_train(
            space, moving, rng, config,
            log=sink(lambda row: "adversarial\t%d\t%.6f\t%.6f" % row))
        mapper.direction = direction
        if args.refine_iters > 0:
            mapper = al.refine(
                space, moving, mapper, args.refine_iters, k=config.csls_k,
                top_n=config.dict_top_n,
                criterion_sample_n=config.criterion_sample_n,
                log=sink(lambda row: "refine\t%d\t%.6f\t%d" % row),
            )
    p1 = al.identical_string_p1(space, moving, mapper, config.csls_k)
    if args.dict_out:
        dico = al.induce_dictionary(
            space, moving, mapper, config.csls_k, config.dict_top_n
        )
        with open(args.dict_out, "w", encoding="utf-8") as fh:
            for moving_idx, space_idx in dico.pairs:
                if args.direction == "s2t":
                    tgt_word = space.words[space_idx]
                    src_word = moving.words[moving_idx]
                else:
                    tgt_word = moving.words[moving_idx]
                    src_word = space.words[space_idx]
                fh.write(f"{tgt_word} {src_word}\n")
    extra = {
        "seed": args.seed,
        "refine_iters": args.refine_iters,
        "identical_string_p1": "nan" if math.isnan(p1) else f"{p1:.4f}",
    }
    extra.update(config.to_flat())
    extra.update(_environment_entries())
    save_mapper(args.out, mapper, extra)
    print(f"mapper saved to {args.out}")
    print(f"orthogonality_error\t{mapper.orthogonality_error():.2e}")
    print(f"identical_string_p1\t{p1:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretrain


def _eval_splits(args, src_dev):
    """(split, language, role, path) of each evaluation split; src_dev is
    the path of the source dev split, if any."""
    return (("src_dev", "src", "dev", src_dev),
            ("tgt_dev", "tgt", "dev", args.tgt_dev),
            ("tgt_test", "tgt", "test", args.tgt_test))


def _build_eval_sets(args, src_dev, model_scheme, src_table, tgt_table,
                     read=None):
    """The evaluation splits given on the command line, in the model's
    scheme; src_dev is the path of the source dev split, if any. read maps
    a split to its dataset, read from its path by default."""
    tables = {"src": src_table, "tgt": tgt_table}
    sets = []
    for split, lang, role, path in _eval_splits(args, src_dev):
        if not path:
            continue
        if tables[lang] is None:
            raise UsageError(f"--{split.replace('_', '-')} requires --{lang}-emb")
        dataset = (_read_dataset(path, lang, role, args.input_scheme,
                                 tag_col=args.tag_col, token_col=args.token_col)
                   if read is None else read(split))
        sets.append(EvalSet(split, lang, tables[lang],
                            _convert_dataset(dataset, model_scheme)))
    return sets


def cmd_pretrain(args):
    config = _config(TrainingConfig, _read_config_file(args.config), args)
    train = _convert_dataset(
        _read_dataset(args.train, "src", "train", args.input_scheme,
                      tag_col=args.tag_col, token_col=args.token_col),
        config.scheme,
    )
    if any(s.tags is None for s in train):
        raise UsageError("training data must carry a tag column")
    if args.tgt_emb:
        raw = _load_tables(args.src_emb, args.tgt_emb, config.emb_limit)
    else:
        raw = _load_table(args.src_emb, config.emb_limit, "src"), None
    mapper = None
    if args.mapper:
        mapper = load_mapper(args.mapper)[0]
    elif config.variant != "source_mono":
        raise UsageError(f"variant {config.variant} requires --mapper")
    src_table, tgt_table = common_space_tables(*raw, mapper)
    del raw  # the table the mapper replaced is freed here
    eval_sets = _build_eval_sets(args, args.dev, config.scheme, src_table,
                                 tgt_table)
    char_vocab = build_char_vocab([train] + [ev.dataset for ev in eval_sets])
    tags = sorted({t for s in train for t in s.tags})
    model = Tagger(
        config.tagger_config(src_table.dim, tags), char_vocab,
        Rng(config.seed),
    )
    rng = Rng(config.seed)
    with _log_file(args.log) as sink:
        _, chosen = pretrain_source(
            model, train, src_table, config, rng, eval_sets,
            sink(_progress_row),
        )
    tables = {"src": src_table}
    if tgt_table is not None:
        tables["tgt"] = tgt_table
    save_model(args.out, model, config, tables, {
        "stage": "pretrain",
        "selected_step": chosen.step,
        "selected_f1": f"{chosen.scores[config.selection]:.6f}",
        **_environment_entries(),
    })
    print(f"model saved to {args.out}")
    for name, score in sorted(chosen.scores.items()):
        print(f"{name}\t{100 * score:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune


def _parse_seeds(text):
    """The --seeds list: comma-separated integers, none repeated, at least
    one."""
    try:
        seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise UsageError(
            f"--seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise UsageError("at least one seed is required")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise UsageError(f"--seeds repeats {', '.join(map(str, repeated))}")
    return seeds


def _finetune_rows(early):
    """The load_model row selection of finetune, given what _read_early read
    of each corpus, by split: each table holds the rows that the tokens of
    its language's corpora read."""
    tokens = {lang: _tokens(*(read for split, read in early.items()
                              if split.startswith(lang)))
              for lang in ("src", "tgt")}

    def rows(words_of):
        return {lang: select_rows(words, tokens[lang])
                for lang, words in words_of.items() if lang in tokens}

    return rows


def cmd_finetune(args):
    seeds = _parse_seeds(args.seeds)
    file_cfg = _read_config_file(args.config)
    _config(TrainingConfig, file_cfg, args)  # range checks before any read
    # the corpora are read before the checkpoint, in any scheme, to select
    # the rows their tokens read; a checkpoint that is not a regular file
    # cannot be read again to copy its tables, so its tables are held whole
    early = {
        "src_train": _read_early(args.src_train, "src", "train",
                                 args.input_scheme, tag_col=args.tag_col,
                                 token_col=args.token_col),
        "tgt_train": _read_early(args.tgt_train, "tgt", "train",
                                 args.input_scheme, tag_col=None,
                                 token_col=args.token_col),
        **{split: _read_early(path, lang, role, args.input_scheme,
                              tag_col=args.tag_col, token_col=args.token_col)
           for split, lang, role, path in _eval_splits(args, args.src_dev)},
    }
    model, config, tables, _ = load_model(
        args.checkpoint,
        _finetune_rows(early) if os.path.isfile(args.checkpoint) else None)
    config = _config(TrainingConfig, {**config.to_flat(), **file_cfg}, args)
    src_train = _convert_dataset(_read(early["src_train"]), config.scheme)
    tgt_train = _convert_dataset(_read(early["tgt_train"]), config.scheme)
    src_table = tables.get("src")
    tgt_table = tables.get("tgt")
    if tgt_table is None:
        if not args.tgt_emb:
            raise UsageError("checkpoint has no target table; pass --tgt-emb")
        tgt_raw = _load_table(args.tgt_emb, config.emb_limit, "tgt")
        mapper = load_mapper(args.mapper)[0] if args.mapper else None
        _, tgt_table = common_space_tables(src_table, tgt_raw, mapper)
        del tgt_raw  # freed here where the mapper replaced it
    eval_sets = _build_eval_sets(args, args.src_dev, config.scheme, src_table,
                                 tgt_table, lambda split: _read(early[split]))
    base_state = snapshot_state(model)
    per_seed = {}
    paths = {}
    for seed in seeds:
        restore_state(model, base_state)
        model.add_target_encoder(Rng(seed))  # a copy of the source encoder
        run_config = replace(config, seed=seed, variant="cross_augmented")
        with _log_file(args.log and f"{args.log}.seed{seed}") as sink:
            _, chosen = augmented_finetune(
                model, src_train, tgt_train, src_table, tgt_table,
                run_config, Rng(seed), eval_sets, sink(_progress_row),
            )
        out_path = f"{args.out}.seed{seed}.zrx"
        save_model(out_path, model, run_config,
                   {"src": src_table, "tgt": tgt_table}, {
                       "stage": "finetune",
                       "selected_step": chosen.step,
                       **_environment_entries(),
                   })
        per_seed[seed] = {k: 100 * v for k, v in chosen.scores.items()}
        paths[seed] = out_path
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.2f}" for k, v in sorted(per_seed[seed].items())
        ))
    best_seed = max(
        seeds, key=lambda s: per_seed[s].get(config.selection, float("-inf"))
    )
    manifest = {
        "command": "finetune",
        "config": {k: str(v) for k, v in sorted(config.to_flat().items())},
        "seeds": seeds,
        "metrics": {str(s): per_seed[s] for s in seeds},
        "checkpoints": {str(s): paths[s] for s in seeds},
        "selected_checkpoint": paths[best_seed],
        "selection": config.selection,
        "numeric_environment": workers.numeric_environment(),
    }
    if len(seeds) >= 2:
        manifest["aggregate"] = multi_seed_report(list(per_seed.values()))
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"selected checkpoint: {paths[best_seed]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tag / eval / project


def cmd_tag(args):
    # the input is read first, without tags, so in any scheme (_read_early)
    early = _read_early(args.input, args.language, "test", IOB2, tag_col=None,
                        token_col=args.token_col)
    # the table of the language to tag, else the source table
    preference = (args.language, "src")

    def rows(words_of):
        lang = next((lang for lang in preference if lang in words_of), None)
        return {} if lang is None else {
            lang: select_rows(words_of[lang], _tokens(early))}

    model, config, tables, _ = load_model(args.checkpoint, rows)
    lang = args.language
    if lang not in model.encoders:
        lang = "src"
    table = next((tables[name] for name in preference if name in tables), None)
    if table is None:
        raise CheckpointError("checkpoint carries no embedding table")
    dataset = _read(early)
    out_scheme = IOB2 if args.to_iob2 else config.scheme
    # one BLAS thread in every process, so that the tags do not depend on
    # the number of processes or of cores
    with workers.blas_threads(1) as pinned:
        preds = predict(model, lang, table, [s.tokens for s in dataset],
                        jobs=workers.usable_cpus() if pinned else 1)
    for sent, tags in zip(dataset, preds):
        if out_scheme != config.scheme:
            tags = convert_scheme(tags, config.scheme, out_scheme)
        sent.tags = tags
    with open(args.output, "w", encoding="utf-8") as fh:
        write_conll(dataset, fh)
    print(f"tagged {dataset.size} sentences -> {args.output}")
    return EXIT_OK


def cmd_eval(args):
    gold = _read_dataset(args.gold, "", "test", args.scheme,
                         tag_col=args.tag_col, token_col=args.token_col)
    pred = _read_dataset(args.pred, "", "test", args.scheme,
                         tag_col=args.tag_col, token_col=args.token_col)
    if gold.size != pred.size:
        raise UsageError(
            f"gold has {gold.size} sentences, predictions {pred.size}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise UsageError(
                f"sentence {i} diverges: {' '.join(g.tokens)!r} vs "
                f"{' '.join(p.tokens)!r}"
            )
    report = entity_f1(gold, [s.tags for s in pred])
    print("type\tprecision\trecall\tf1")
    o = report.overall
    print(f"ALL\t{100 * o.precision:.2f}\t{100 * o.recall:.2f}\t{100 * o.f1:.2f}")
    for name in sorted(report.per_type):
        t = report.per_type[name]
        print(
            f"{name}\t{100 * t.precision:.2f}\t{100 * t.recall:.2f}"
            f"\t{100 * t.f1:.2f}"
        )
    print(f"repaired_pred\t{report.pred_repairs}")
    if args.curve_out:
        curve = correct_tag_ratio_by_length(
            gold, [s.tags for s in pred], args.buckets
        )
        with open(args.curve_out, "w", encoding="utf-8") as fh:
            for (lo, hi), ratio in sorted(curve.items()):
                fh.write(f"{lo}-{hi}\t{ratio:.6f}\n")
    return EXIT_OK


def _pca_2d(vectors):
    # centring widens the float32 rows exactly, into the one float64 copy
    centered = vectors - vectors.mean(axis=0, keepdims=True, dtype=np.float64)
    cov = centered.T @ centered / max(len(centered), 1)
    u, s, _ = svd_square(cov)
    components = u[:, :2]
    # deterministic sign: largest-magnitude entry positive
    for col in range(components.shape[1]):
        pivot = np.abs(components[:, col]).argmax()
        if components[pivot, col] < 0:
            components[:, col] *= -1
    return centered @ components, s


def cmd_project(args):
    _at_least("--limit", args.limit, 1)
    if args.emb:
        table = _load_table(args.emb, args.limit, "")
    elif args.checkpoint:
        lang = args.language
        # rows 0..limit-1 alone, as a .vec table loads them; every row of
        # the table is still checked
        _, _, tables, _ = load_model(args.checkpoint, lambda words_of: {
            name: range(min(args.limit, len(words)))
            for name, words in words_of.items() if name == lang})
        if lang not in tables:
            raise UsageError(f"checkpoint has no table for {lang!r}")
        table = tables[lang]
    else:
        raise UsageError("pass --emb or --checkpoint")
    words, vectors = table.words[: args.limit], table.vectors[: args.limit]
    tag_of = {}
    if args.tags:
        # the CoNLL line and column rule, so a word may hold what a .vec word may
        with open(args.tags, "r", encoding="utf-8", newline="\n") as fh:
            for line in iter_lines(fh):
                parts = _columns(line)
                if len(parts) >= 2:
                    tag_of[parts[0]] = parts[1]
    coords, spectrum = _pca_2d(vectors)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "x", "y", "tag"])
        for i, word in enumerate(words):
            writer.writerow([
                word, f"{coords[i, 0]:.6f}", f"{coords[i, 1]:.6f}",
                tag_of.get(word, ""),
            ])
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump({
                "command": "project",
                "method": "pca",
                "rows": len(words),
                "explained_variance": [float(x) for x in spectrum[:2]],
                "total_variance": float(spectrum.sum()),
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"projected {len(words)} rows (method=pca) -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface


def _config_flags(p, cls, *names, **renamed):
    """Add a flag per named field of the config dataclass cls, typed by the
    field's default (a bool field is a switch that sets it true); renamed
    maps a flag's name to its field. A flag not given is None, so the value
    from the config file or the checkpoint holds."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    dests = {**{name: name for name in names}, **renamed}
    for dest, name in dests.items():
        flag = "--" + dest.replace("_", "-")
        if kinds[name] is bool:
            p.add_argument(flag, action="store_const", const=True)
        else:
            p.add_argument(flag, type=kinds[name])
    p.set_defaults(config_flags={name: dest for dest, name in dests.items()})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zrxner",
        description="Zero-resource cross-lingual NER toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="learn an unsupervised embedding mapper")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--direction", choices=("s2t", "t2s"), default="s2t")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine-iters", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--dict-out")
    p.add_argument("--log")
    p.add_argument("--config")
    p.add_argument("--limit", type=int, default=DEFAULT_LOAD_LIMIT)
    _config_flags(p, al.AlignConfig, "w_steps", "disc_steps", "batch_size",
                  "disc_hidden", "vocab_cap", "csls_k", "dict_top_n",
                  "restarts")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("pretrain", help="train the source model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--tgt-dev")
    p.add_argument("--tgt-test")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb")
    p.add_argument("--mapper")
    p.add_argument("--input-scheme", default="IOB1")
    p.add_argument("--token-col", type=int, default=0)
    p.add_argument("--tag-col", type=int, default=-1)
    _config_flags(p, TrainingConfig, "variant", "scheme", "seed", "epochs",
                  "batch_size", "eval_interval", "dropout", "lr0", "char_dim",
                  "char_hidden", "word_hidden", "head_hidden",
                  select="selection", limit="emb_limit",
                  constrained="constrained_decoding")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="augmented fine-tuning on target data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-train", required=True)
    p.add_argument("--tgt-train", required=True)
    p.add_argument("--src-dev")
    p.add_argument("--tgt-dev")
    p.add_argument("--tgt-test")
    p.add_argument("--tgt-emb")
    p.add_argument("--mapper")
    p.add_argument("--seeds", default="0")
    _config_flags(p, TrainingConfig, "rounds", "n_steps", "patience",
                  "eval_interval", select="selection")
    p.add_argument("--input-scheme", default="IOB1")
    p.add_argument("--token-col", type=int, default=0)
    p.add_argument("--tag-col", type=int, default=-1)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.add_argument("--log")
    p.add_argument("--config")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("tag", help="tag a CoNLL file with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--language", choices=("src", "tgt"), default="tgt")
    p.add_argument("--to-iob2", action="store_true")
    p.add_argument("--token-col", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)  # tagging is deterministic
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="entity-level scoring of predictions")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--scheme", default=IOB2)
    p.add_argument("--curve-out")
    p.add_argument("--buckets", type=int, default=10)
    p.add_argument("--token-col", type=int, default=0)
    p.add_argument("--tag-col", type=int, default=-1)
    p.add_argument("--seed", type=int, default=0)  # scoring is deterministic
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("project", help="2-D PCA export of an embedding table")
    p.add_argument("--emb")
    p.add_argument("--checkpoint")
    p.add_argument("--language", choices=("src", "tgt"), default="tgt")
    p.add_argument("--tags")
    p.add_argument("--limit", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.add_argument("--seed", type=int, default=0)  # projection is deterministic
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except OSError as exc:  # a missing or unreadable input, an unwritable output
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc.reason} "
              f"(byte {exc.object[exc.start]:#04x})", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, AlignmentError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
