"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Criterion 8 is data-gated and skips unless real corpora are
supplied via environment variables."""

import itertools
import os
import time

import numpy as np
import pytest

from zrxner.align import AlignConfig, adversarial_train, procrustes, refine
from zrxner.corpus import (
    IOB1,
    IOB2,
    IOBES,
    Dataset,
    TaggedSentence,
    build_char_vocab,
    convert_scheme,
    entity_f1,
    read_conll,
    scan_entities,
)
from zrxner.embeddings import load_vec_text, normalize
from zrxner.numeric import Rng, dropout_mask
from zrxner.tagger import Tagger, backward_pass, viterbi
from zrxner.trainer import (
    EvalSet,
    TrainingConfig,
    augmented_finetune,
    common_space_tables,
    lr_at,
    pretrain_source,
)

from fixtures import BilingualFixture, precision_at_1, random_orthogonal, synthetic_pair
from oracles import (
    batch_nll,
    crf_enumerate,
    crf_log_partition,
    crf_marginals,
    crf_path_score,
    finite_difference_grads,
)


def report(number, name, started, detail=""):
    elapsed = time.time() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s){suffix}")


def test_criterion_1_crf_exactness():
    started = time.time()
    rng = np.random.default_rng(42)
    for case in range(200):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        scores = rng.normal(size=(m, k)) * 2
        trans = rng.normal(size=(k + 2, k + 2)) * 2
        log_z, best_path, best_score, marginals = crf_enumerate(scores, trans)
        assert abs(crf_log_partition(scores, trans) - log_z) < 1e-8
        got = viterbi(scores[None], trans, [m])[0]
        all_scores = sorted(
            (
                crf_path_score(scores, trans, path)
                for path in itertools.product(range(k), repeat=m)
            ),
            reverse=True,
        )
        if len(all_scores) > 1 and all_scores[0] - all_scores[1] > 1e-10:
            assert got == best_path, f"case {case}"
        marg, _ = crf_marginals(scores, trans)
        assert np.abs(marg.sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(marg - marginals).max() < 1e-8
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "CRF exactness (200 instances vs enumeration)", started)


GRAD_CHARS = {"<pad>": 0, "<unk>": 1}
for _i, _c in enumerate("abcdef"):
    GRAD_CHARS[_c] = _i + 2

GRAD_BATCH = [
    (["aa", "ba", "ab"], ["B-X", "I-X", "O"]),
    (["bb", "aa"], ["O", "B-X"]),
    (["ca", "cb", "ba", "aa"], ["O", "B-X", "I-X", "O"]),
]


def _grad_rel_errors(tied):
    from zrxner.embeddings import EmbeddingTable

    config = TrainingConfig(
        variant="cross_shared" if tied else "cross_word",
        scheme=IOB2, char_dim=4, char_hidden=4, word_hidden=6, head_hidden=4,
        seed=3,
    )
    tags = ["O", "B-X", "I-X"]
    model = Tagger(config.tagger_config(5, tags), GRAD_CHARS, Rng(3))
    table = EmbeddingTable(
        ["aa", "ab", "ba", "bb", "ca", "cb"],
        np.random.default_rng(4).normal(size=(6, 5)),
    )
    rng = Rng(11)
    masks = [
        dropout_mask(rng, (len(toks), model.cfg.input_dim), 0.5)
        for toks, _ in GRAD_BATCH
    ]
    batch = [model.prepare(table, *item) for item in GRAD_BATCH]
    _, analytic = backward_pass(model, "src", batch, masks=masks)
    params = model.named_parameters("src")
    fd = finite_difference_grads(
        lambda: batch_nll(model, "src", table, GRAD_BATCH, masks=masks),
        params, h=1e-5,
    )
    worst = {}
    for name in params:
        a, b = analytic[name], fd[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        rel = np.abs(a - b) / denom
        ok = (np.abs(a - b) <= 1e-8) | (rel <= 1e-4)
        assert ok.all(), f"{name}: worst rel {rel.max():.2e}"
        worst[name] = float(rel[np.abs(a - b) > 1e-8].max()) \
            if (np.abs(a - b) > 1e-8).any() else 0.0
    return worst


def test_criterion_2_gradient_fidelity():
    started = time.time()
    worst = 0.0
    for tied in (False, True):
        errors = _grad_rel_errors(tied)
        worst = max(worst, max(errors.values()))
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    report(2, "gradient fidelity (finite differences, tied and untied)",
           started, f"worst rel err {worst:.2e}")


def test_criterion_3_procrustes_recovery():
    started = time.time()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 16))
    omega = random_orthogonal(rng, 16)
    y = x @ omega
    mapper = procrustes(x, y)
    residual = np.abs(y @ mapper.w.T - x).max()
    assert residual < 1e-6
    assert mapper.orthogonality_error() < 1e-6
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "Procrustes rotation recovery (d=16, n=200)", started,
           f"max residual {residual:.1e}")


def test_criterion_4_unsupervised_alignment():
    started = time.time()
    config = AlignConfig(
        w_steps=10000, disc_steps=5, batch_size=64, disc_hidden=128,
        vocab_cap=300, csls_k=10, dict_top_n=300, criterion_sample_n=300,
        restarts=3,
    )
    scores = []
    for seed in range(5):
        src, tgt, _ = synthetic_pair(200 + seed, n=300, d=16, noise=0.01)
        mapper = adversarial_train(src, tgt, Rng(seed), config)
        mapper = refine(src, tgt, mapper, iterations=5, k=10, top_n=300,
                        criterion_sample_n=300)
        scores.append(precision_at_1(src, tgt, mapper))
    median = float(np.median(scores))
    assert median >= 0.9, f"P@1 per seed: {scores}"
    elapsed = time.time() - started
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, "unsupervised alignment (vocab 300, noise 0.01)", started,
           f"median P@1 {median:.2f}, per-seed {['%.2f' % s for s in scores]}")


def _transfer_run(seed):
    fx = BilingualFixture(seed=1000 + seed, n_train=800, n_dev=200, n_test=200)
    align_cfg = AlignConfig(
        w_steps=8000, disc_steps=5, batch_size=64, disc_hidden=128,
        vocab_cap=400, csls_k=10, dict_top_n=400, criterion_sample_n=400,
        restarts=3,
    )
    mapper = adversarial_train(fx.src_emb, fx.tgt_emb, Rng(seed), align_cfg)
    mapper = refine(fx.src_emb, fx.tgt_emb, mapper, 5, k=10, top_n=400,
                    criterion_sample_n=400)

    chars = build_char_vocab([fx.src_train, fx.src_dev, fx.tgt_train, fx.tgt_dev])
    tags = sorted({t for s in fx.src_train for t in s.tags})

    def make_cfg(variant):
        return TrainingConfig(
            epochs=6, batch_size=16, eval_interval=100, dropout=0.5,
            char_dim=8, char_hidden=8, word_hidden=16, head_hidden=16,
            scheme=IOB2, variant=variant, selection="tgt_dev", seed=seed,
        )

    results = {}
    # Source-Mono: no cross-lingual information, native tables on both sides
    cfg = make_cfg("source_mono")
    model = Tagger(cfg.tagger_config(fx.src_emb.dim, tags), chars, Rng(seed))
    evals = [
        EvalSet("src_dev", "src", fx.src_emb, fx.src_dev),
        EvalSet("tgt_dev", "tgt", fx.tgt_emb, fx.tgt_dev),
        EvalSet("tgt_test", "tgt", fx.tgt_emb, fx.tgt_test),
    ]
    _, chosen = pretrain_source(model, fx.src_train, fx.src_emb, cfg,
                                Rng(seed), evals)
    results["source_mono"] = chosen.scores["tgt_test"]

    # Cross-Word: train in the common space given by the learned mapper
    src_c, tgt_c = common_space_tables(fx.src_emb, fx.tgt_emb, mapper)
    cfg = make_cfg("cross_word")
    model = Tagger(cfg.tagger_config(src_c.dim, tags), chars, Rng(seed))
    evals = [
        EvalSet("src_dev", "src", src_c, fx.src_dev),
        EvalSet("tgt_dev", "tgt", tgt_c, fx.tgt_dev),
        EvalSet("tgt_test", "tgt", tgt_c, fx.tgt_test),
    ]
    _, chosen = pretrain_source(model, fx.src_train, src_c, cfg, Rng(seed),
                                evals)
    results["cross_word"] = chosen.scores["tgt_test"]

    # Cross-Augmented: fine-tune from the selected Cross-Word model; target
    # labels are never trained on (tgt_dev is the spade selection regime)
    ft_cfg = make_cfg("cross_word")
    ft_cfg.rounds = 4
    ft_cfg.n_steps = 50
    ft_cfg.eval_interval = 50
    _, chosen = augmented_finetune(
        model, fx.src_train, fx.tgt_train_unlabeled, src_c, tgt_c, ft_cfg,
        Rng(seed + 500), evals,
    )
    results["cross_augmented"] = chosen.scores["tgt_test"]
    return results


def test_criterion_5_end_to_end_transfer():
    started = time.time()
    aug_wins = 0
    cw_wins = 0
    lines = []
    for seed in range(5):
        seed_started = time.time()
        res = _transfer_run(seed)
        seed_elapsed = time.time() - seed_started
        assert seed_elapsed < 600.0, f"seed {seed} took {seed_elapsed:.0f}s"
        aug_wins += res["cross_augmented"] >= res["cross_word"]
        cw_wins += res["cross_word"] >= res["source_mono"]
        lines.append(
            f"seed {seed}: mono {100 * res['source_mono']:.1f} "
            f"cross_word {100 * res['cross_word']:.1f} "
            f"cross_augmented {100 * res['cross_augmented']:.1f} "
            f"({seed_elapsed:.0f}s)"
        )
    print()
    for line in lines:
        print(line)
    assert aug_wins >= 4, f"cross_augmented >= cross_word on {aug_wins}/5 seeds"
    assert cw_wins >= 4, f"cross_word >= source_mono on {cw_wins}/5 seeds"
    report(5, "end-to-end zero-resource transfer ordering", started,
           f"aug>=cw {aug_wins}/5, cw>=mono {cw_wins}/5")


SCHEME_CASES = [
    # (tags, scheme, expected spans (start, end, type))
    (["I-PER", "I-PER", "O", "I-LOC"], IOB1, [(0, 1, "PER"), (3, 3, "LOC")]),
    (["I-ORG", "B-ORG", "I-ORG"], IOB1, [(0, 0, "ORG"), (1, 2, "ORG")]),
    (["I-A", "I-B"], IOB1, [(0, 0, "A"), (1, 1, "B")]),
    (["B-PER", "I-PER", "O", "B-LOC"], IOB2, [(0, 1, "PER"), (3, 3, "LOC")]),
    (["B-PER", "B-PER"], IOB2, [(0, 0, "PER"), (1, 1, "PER")]),
    (["O", "O", "O"], IOB2, []),
    (["S-LOC"], IOBES, [(0, 0, "LOC")]),
    (["B-PER", "E-PER"], IOBES, [(0, 1, "PER")]),
    (["B-PER", "I-PER", "E-PER", "S-ORG"], IOBES,
     [(0, 2, "PER"), (3, 3, "ORG")]),
    (["S-A", "S-A", "S-B"], IOBES, [(0, 0, "A"), (1, 1, "A"), (2, 2, "B")]),
]

CONVERSION_CASES = [
    (["I-PER", "I-PER", "O", "I-LOC"], IOB1, IOB2,
     ["B-PER", "I-PER", "O", "B-LOC"]),
    (["B-PER", "I-PER", "O", "B-LOC"], IOB2, IOBES,
     ["B-PER", "E-PER", "O", "S-LOC"]),
    (["I-ORG", "B-ORG", "I-ORG"], IOB1, IOB2, ["B-ORG", "B-ORG", "I-ORG"]),
    (["B-ORG", "B-ORG", "I-ORG"], IOB2, IOB1, ["I-ORG", "B-ORG", "I-ORG"]),
    (["B-ORG", "B-ORG"], IOB2, IOBES, ["S-ORG", "S-ORG"]),
    (["S-ORG", "S-ORG"], IOBES, IOB1, ["I-ORG", "B-ORG"]),
    (["B-A", "I-A", "I-A"], IOB2, IOBES, ["B-A", "I-A", "E-A"]),
    (["B-A", "E-A", "S-A"], IOBES, IOB2, ["B-A", "I-A", "B-A"]),
    (["O"], IOB1, IOBES, ["O"]),
    (["I-X"], IOB1, IOBES, ["S-X"]),
]

REPAIR_CASES = [
    (["I-PER", "I-PER"], IOB2, [(0, 1, "PER")], 1),
    (["B-PER", "I-LOC"], IOB2, [(0, 0, "PER"), (1, 1, "LOC")], 1),
    (["E-LOC"], IOBES, [(0, 0, "LOC")], 1),
    (["B-PER", "O"], IOBES, [(0, 0, "PER")], 1),
    (["I-A", "E-A"], IOBES, [(0, 1, "A")], 1),
]


def test_criterion_6_scheme_eval_and_lr_conformance():
    started = time.time()
    cases = 0
    for tags, scheme, expected in SCHEME_CASES:
        got = [(s.start, s.end, s.type) for s in scan_entities(tags, scheme)[0]]
        assert got == expected, (tags, scheme)
        cases += 1
    for tags, src, dst, expected in CONVERSION_CASES:
        assert convert_scheme(tags, src, dst) == expected, (tags, src, dst)
        cases += 1
    for tags, scheme, expected, repairs in REPAIR_CASES:
        spans, got_repairs = scan_entities(tags, scheme)
        assert [(s.start, s.end, s.type) for s in spans] == expected
        assert got_repairs == repairs, (tags, scheme)
        cases += 1
    assert cases >= 20
    # F1 fixtures
    gold = Dataset(
        [TaggedSentence(list("abcd"), ["B-PER", "I-PER", "O", "B-LOC"])],
        scheme=IOB2,
    )
    half = entity_f1(gold, [["B-PER", "I-PER", "O", "B-ORG"]])
    assert half.overall.precision == half.overall.recall == 0.5
    assert half.overall.f1 == 0.5
    exact = entity_f1(gold, [["B-PER", "I-PER", "O", "B-LOC"]])
    assert exact.overall.f1 == 1.0
    miss = entity_f1(gold, [["B-PER", "O", "O", "B-LOC"]])
    assert miss.per_type["PER"].f1 == 0.0
    # LR schedule, exactly the stated formula values
    cfg = TrainingConfig()
    assert lr_at(cfg, 0) == 0.1
    assert lr_at(cfg, 10) == pytest.approx(0.1 / 1.1, abs=1e-15)
    assert lr_at(cfg, 10**6) == 0.0001
    report(6, "scheme/eval/LR conformance", started, f"{cases} scheme cases")


def test_criterion_7_tying_accounting():
    started = time.time()
    tags = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    chars = dict(GRAD_CHARS)

    def build(variant, languages=("src",)):
        cfg = TrainingConfig(variant=variant, scheme=IOB2)
        return Tagger(cfg.tagger_config(300, tags), chars, Rng(0), languages)

    cross_word = build("cross_word").parameter_counts()
    cross_shared = build("cross_shared").parameter_counts()
    assert cross_shared["word_level"] * 2 == cross_word["word_level"]
    assert cross_shared["char_level"] * 2 == cross_word["char_level"]
    assert cross_shared["recurrent_and_head"] < cross_word["recurrent_and_head"]
    augmented = build("cross_word", ("src", "tgt")).parameter_counts()
    assert augmented["total"] > cross_word["total"]
    assert augmented["head"] == cross_word["head"]  # one shared head
    assert augmented["char_table"] == cross_word["char_table"]
    report(
        7, "tying accounting", started,
        f"cross_word {cross_word['total']}, cross_shared "
        f"{cross_shared['total']}, cross_augmented {augmented['total']}",
    )


CONLL03_ENV = "ZRXNER_CONLL2003_DIR"
FASTTEXT_ENV = "ZRXNER_FASTTEXT_VEC"


def test_criterion_8_conll2003_monolingual():
    data_dir = os.environ.get(CONLL03_ENV)
    vec_path = os.environ.get(FASTTEXT_ENV)
    if not data_dir or not vec_path:
        pytest.skip(
            f"set {CONLL03_ENV} and {FASTTEXT_ENV} to run the data-gated "
            "monolingual criterion"
        )
    started = time.time()

    def find(name):
        for candidate in (name, f"{name}.txt", f"eng.{name}"):
            path = os.path.join(data_dir, candidate)
            if os.path.exists(path):
                return path
        raise FileNotFoundError(f"no {name} split under {data_dir}")

    with open(find("train"), encoding="utf-8") as fh:
        train = read_conll(fh, language="en", role="train", scheme=IOB1)
    assert train.size == 14041  # standard English training split size
    with open(find("testa"), encoding="utf-8") as fh:
        dev = read_conll(fh, language="en", role="dev", scheme=IOB1)
    for ds in (train, dev):
        for sent in ds:
            sent.tags = convert_scheme(sent.tags, IOB1, IOBES)
        ds.scheme = IOBES
    with open(vec_path, encoding="utf-8") as fh:
        table = load_vec_text(fh, limit=200000, language="en")
    normalize(table.vectors, out=table.vectors)
    assert table.dim == 300
    config = TrainingConfig(variant="source_mono", scheme=IOBES, seed=0)
    chars = build_char_vocab([train, dev])
    tags = sorted({t for s in train for t in s.tags})
    model = Tagger(config.tagger_config(table.dim, tags), chars, Rng(0))
    records = pretrain_source(
        model, train, table, config, Rng(0),
        [EvalSet("src_dev", "src", table, dev)],
    )
    best = max(r.scores["src_dev"] for r in records)
    assert best * 100 >= 85.0, f"dev F1 {100 * best:.2f}"
    report(8, "CoNLL-2003 monolingual (data-gated)", started,
           f"dev F1 {100 * best:.2f}")
