import math
import statistics
import weakref

import numpy as np
import pytest

import zrxner.trainer as trainer_mod
from zrxner.align import LinearMapper
from zrxner.corpus import IOB2, Dataset, TaggedSentence, build_char_vocab
from zrxner.errors import UsageError
from zrxner.numeric import Rng
from zrxner.tagger import Tagger, predict
from zrxner.trainer import (
    CheckpointRecord,
    EvalSet,
    TrainingConfig,
    augmented_finetune,
    common_space_tables,
    generate_pseudo_labels,
    lr_at,
    multi_seed_report,
    pretrain_source,
    restore_state,
    snapshot_state,
)

from fixtures import BilingualFixture
from oracles import select_model


def small_config(**kw):
    base = dict(
        epochs=5, batch_size=16, eval_interval=50, dropout=0.5,
        char_dim=8, char_hidden=8, word_hidden=16, head_hidden=16,
        scheme=IOB2, variant="cross_word", seed=0,
    )
    base.update(kw)
    return TrainingConfig(**base)


@pytest.fixture(scope="module")
def fx():
    return BilingualFixture(seed=11, n_train=200, n_dev=80, n_test=80)


def build_model(fx, config, languages=("src",)):
    datasets = [fx.src_train, fx.src_dev, fx.tgt_train, fx.tgt_dev]
    char_vocab = build_char_vocab(datasets)
    tags = sorted({t for s in fx.src_train for t in s.tags})
    return Tagger(
        config.tagger_config(fx.src_emb.dim, tags), char_vocab,
        Rng(config.seed), languages,
    )


def test_lr_schedule_exact_reference_values():
    cfg = TrainingConfig()
    assert lr_at(cfg, 0) == pytest.approx(0.1, abs=0)
    assert lr_at(cfg, 10) == pytest.approx(0.1 / 1.1, abs=1e-15)
    assert lr_at(cfg, 10**6) == pytest.approx(0.0001, abs=0)


def test_lr_never_increases():
    cfg = TrainingConfig()
    values = [lr_at(cfg, e) for e in range(0, 2000, 25)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_config_flat_round_trip():
    cfg = small_config(variant="cross_shared", selection="tgt_dev", seed=9)
    again = TrainingConfig.from_flat(cfg.to_flat())
    assert again == cfg


@pytest.mark.parametrize("raw, value", [
    ("true", True), ("TRUE", True), ("True", True), ("false", False),
    ("FaLsE", False),
])
def test_config_booleans_read_in_any_case(raw, value):
    cfg = TrainingConfig.from_flat({"train.constrained_decoding": raw})
    assert cfg.constrained_decoding is value


def test_config_boolean_rejects_other_words():
    with pytest.raises(UsageError, match="constrained_decoding"):
        TrainingConfig.from_flat({"train.constrained_decoding": "yes"})


@pytest.mark.parametrize("key, raw", [
    ("train.epochs", "abc"), ("train.batch_size", "1.5"),
    ("train.dropout", "half"), ("train.lr0", ""),
])
def test_config_non_numeric_value_is_usage_error(key, raw):
    with pytest.raises(UsageError, match=key):
        TrainingConfig.from_flat({key: raw})


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("eval_interval", 0), ("dropout", 1.0),
    ("dropout", -0.1), ("epochs", -1), ("decay", -1.0), ("rounds", -1),
    ("n_steps", -3), ("clip", 0.0), ("clip", -1.0), ("char_dim", 0),
    ("char_hidden", -2), ("word_hidden", 0), ("head_hidden", 0),
    ("emb_limit", 0), ("emb_limit", -1), ("lr0", 0.0), ("lr0", -5.0),
    ("lr_floor", -1e-4),
])
def test_config_out_of_range_value_is_usage_error(field, value):
    with pytest.raises(UsageError, match=field):
        small_config(**{field: value})
    with pytest.raises(UsageError, match=field):
        TrainingConfig.from_flat({f"train.{field}": str(value)})


def test_config_accepts_each_bound_itself():
    cfg = small_config(decay=0.0, rounds=0, n_steps=0, clip=1e-12, char_dim=1,
                       char_hidden=1, word_hidden=1, head_hidden=1,
                       emb_limit=1, epochs=0, batch_size=1, eval_interval=1,
                       dropout=0.0, lr0=1e-12, lr_floor=0.0)
    assert TrainingConfig.from_flat(cfg.to_flat()) == cfg


def test_variant_flags():
    assert small_config(variant="cross_word_nochar").use_char is False
    assert small_config(variant="cross_shared").tied is True
    assert small_config(variant="cross_word").tied is False
    with pytest.raises(UsageError):
        small_config(variant="nonsense")


def test_common_space_tables_directions(fx):
    w = np.random.default_rng(0).normal(size=(16, 16))
    s2t = common_space_tables(fx.src_emb, fx.tgt_emb, LinearMapper(w, "s_to_t"))
    np.testing.assert_allclose(s2t[0].vectors, fx.src_emb.vectors @ w.T)
    np.testing.assert_array_equal(s2t[1].vectors, fx.tgt_emb.vectors)
    t2s = common_space_tables(fx.src_emb, fx.tgt_emb, LinearMapper(w, "t_to_s"))
    np.testing.assert_array_equal(t2s[0].vectors, fx.src_emb.vectors)
    np.testing.assert_allclose(t2s[1].vectors, fx.tgt_emb.vectors @ w.T)
    mono = common_space_tables(fx.src_emb, fx.tgt_emb, None)
    assert mono[0] is fx.src_emb and mono[1] is fx.tgt_emb


def test_pretrain_separable_corpus_reaches_high_train_f1():
    # tag <=> embedding-cluster direction; 50 updates/epoch are plenty
    sep = BilingualFixture(seed=21, n_train=400, n_dev=40, n_test=40)
    config = small_config(epochs=5, batch_size=8, eval_interval=50)
    model = build_model(sep, config)
    train_eval = EvalSet("src_dev", "src", sep.src_emb, sep.src_train)
    records, _ = pretrain_source(
        model, sep.src_train, sep.src_emb, config, Rng(0), [train_eval]
    )
    best = max(r.scores["src_dev"] for r in records)
    assert best >= 0.99, f"train F1 only reached {best:.3f}"


def test_pretrain_deterministic_loss_trajectory(fx):
    config = small_config(epochs=2, eval_interval=10)
    logs = []
    for _ in range(2):
        model = build_model(fx, config)
        records = []
        pretrain_source(
            model, fx.src_train, fx.src_emb, config, Rng(7),
            [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)],
            log=records.append,
        )
        # repr, so that nan loss terms compare equal
        logs.append([repr((r.step, r.epoch, r.lr, r.losses, r.scores))
                     for r in records])
    assert logs[0] == logs[1]
    assert len(logs[0]) >= 2  # eval records were actually reported


def test_pretrain_rejects_empty_dataset(fx):
    config = small_config()
    model = build_model(fx, config)
    empty = Dataset([], language="src", scheme=IOB2)
    with pytest.raises(UsageError, match="empty training dataset"):
        pretrain_source(model, empty, fx.src_emb, config, Rng(0),
                        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)])


def test_pretrain_excludes_overlong_sentences(fx):
    config = small_config(epochs=1, max_sentence_length=3)
    model = build_model(fx, config)
    records, _ = pretrain_source(
        model, fx.src_train, fx.src_emb, config, Rng(0),
        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)],
    )
    kept = sum(1 for s in fx.src_train if len(s) <= 3)
    assert records[-1].step == math.ceil(kept / config.batch_size)


def test_generate_pseudo_labels_degenerate_range(fx):
    config = small_config()
    model = build_model(fx, config)
    nine = Dataset(
        [TaggedSentence([f"w{i}" for i in range(9)]) for _ in range(4)],
        language="tgt", scheme=IOB2,
    )
    pseudo = generate_pseudo_labels(model, fx.tgt_emb, nine, Rng(0))
    assert pseudo.threshold == 9
    assert len(pseudo.sentences) == 4


def test_generate_pseudo_labels_matches_independent_predict(fx):
    config = small_config()
    model = build_model(fx, config)
    subset = Dataset(
        [TaggedSentence(list(s.tokens)) for s in fx.tgt_dev.sentences[:20]],
        language="tgt", scheme=IOB2,
    )
    pseudo = generate_pseudo_labels(model, fx.tgt_emb, subset, Rng(3))
    assert all(len(s) <= pseudo.threshold for s in pseudo.sentences)
    for sent in pseudo.sentences:
        assert [sent.tags] == predict(model, "src", fx.tgt_emb, [sent.tokens])


def finetuned(fx, config, rounds, seed=0, **kw):
    model = build_model(fx, config)
    pretrain_source(
        model, fx.src_train, fx.src_emb, config, Rng(seed),
        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)],
    )
    ft_cfg = small_config(
        variant=config.variant, rounds=rounds, n_steps=10,
        selection="src_dev", **kw,
    )
    records, _ = augmented_finetune(
        model, fx.src_train, fx.tgt_train_unlabeled, fx.src_emb, fx.tgt_emb,
        ft_cfg, Rng(seed + 1),
        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)],
    )
    return model, records


def test_each_stage_logs_every_record_in_order_with_lr_and_losses(
        fx, monkeypatch):
    config = small_config(epochs=1, eval_interval=4)
    model = build_model(fx, config)
    dev = [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)]
    logged = []
    records, _ = pretrain_source(model, fx.src_train, fx.src_emb, config,
                                 Rng(0), dev, log=logged.append)
    assert len(logged) == len(records) >= 2
    assert all(a is b for a, b in zip(logged, records))
    for r in records:
        assert r.lr == lr_at(config, r.epoch)
        assert math.isfinite(r.losses[0])
        assert math.isnan(r.losses[1]) and math.isnan(r.losses[2])

    step_losses = []  # per step: source, target via source, target
    original = trainer_mod.backward_pass

    def spy(model, lang, batch, masks):
        loss, grads = original(model, lang, batch, masks)
        if not step_losses or len(step_losses[-1]) == 3:
            step_losses.append([])
        step_losses[-1].append(loss)
        return loss, grads

    monkeypatch.setattr(trainer_mod, "backward_pass", spy)
    ft_cfg = small_config(epochs=1, rounds=3, n_steps=6, eval_interval=4)
    logged = []
    records, _ = augmented_finetune(
        model, fx.src_train, fx.tgt_train_unlabeled, fx.src_emb, fx.tgt_emb,
        ft_cfg, Rng(1), dev, log=logged.append,
    )
    assert len(logged) == len(records)
    assert all(a is b for a, b in zip(logged, records))
    # every 4 steps, and at each round's end unless its last step was
    assert [r.step for r in records] == [0, 4, 6, 8, 12, 16, 18]
    assert [r.epoch for r in records] == [1, 1, 1, 2, 2, 3, 3]
    assert all(r.lr == lr_at(ft_cfg, r.epoch) for r in records)
    assert all(math.isnan(x) for x in records[0].losses)
    assert len(step_losses) == 18
    for prev, r in zip(records, records[1:]):
        want = np.mean(step_losses[prev.step : r.step], axis=0)
        assert r.losses == pytest.approx(tuple(want), rel=1e-12)


def spy_evaluations(monkeypatch, states, scores=None):
    """Every evaluation first appends a copy of the tensors it scores to
    states; with scores, it then returns the next of them as its src_dev
    F1 instead of evaluating."""
    original = trainer_mod.evaluate_model
    queue = iter(scores or ())

    def evaluate(model, eval_sets):
        states.append(snapshot_state(model))
        if scores is None:
            return original(model, eval_sets)
        return {"src_dev": next(queue)}

    monkeypatch.setattr(trainer_mod, "evaluate_model", evaluate)


def test_finetune_zero_rounds_keeps_initialization(fx):
    config = small_config(epochs=1)
    model, records = finetuned(fx, config, rounds=0)
    assert len(records) == 1  # the initialization evaluation only
    src = model.named_parameters("src")
    tgt = model.named_parameters("tgt")
    np.testing.assert_array_equal(
        src["enc.src.word.f.w"], tgt["enc.tgt.word.f.w"]
    )


def test_finetune_shared_head_receives_all_terms(fx):
    config = small_config(epochs=1)
    model, _ = finetuned(fx, config, rounds=1)
    # the head is one storage for both views after training
    assert model.named_parameters("src")["head.tag_w"] is \
        model.named_parameters("tgt")["head.tag_w"]


def test_finetune_pseudo_length_invariant(fx, monkeypatch):
    import zrxner.trainer as trainer_mod

    thresholds = []
    original = trainer_mod.generate_pseudo_labels

    def spy(model, table, dataset, rng):
        pseudo = original(model, table, dataset, rng)
        thresholds.append(pseudo.threshold)
        assert all(len(s) <= pseudo.threshold for s in pseudo.sentences)
        return pseudo

    monkeypatch.setattr(trainer_mod, "generate_pseudo_labels", spy)
    config = small_config(epochs=1)
    finetuned(fx, config, rounds=2)
    assert len(thresholds) == 2


def test_finetune_source_term_ablation_changes_updates(fx, monkeypatch):
    states = []
    spy_evaluations(monkeypatch, states)
    config = small_config(epochs=1)
    trained = []
    for source_term in (True, False):
        finetuned(fx, config, rounds=1, source_term=source_term)
        # the last evaluation sees the tensors after the last update
        trained.append(states[-1]["enc.src.word.f.w"])
    assert not np.array_equal(*trained)


def test_finetune_tied_cells_stay_one_storage(fx):
    config = small_config(variant="cross_shared", epochs=1)
    model, _ = finetuned(fx, config, rounds=1)
    params = model.all_parameters()
    for lang in ("src", "tgt"):
        enc = model.encoders[lang]
        for level, bi in (("word", enc.word), ("char", enc.char)):
            # one cell serves both directions
            assert len(bi.w) == len(bi.u) == len(bi.b) == 1
            for name in "wub":
                assert f"enc.{lang}.{level}.b.{name}" not in params
                assert np.shares_memory(params[f"enc.{lang}.{level}.f.{name}"],
                                        getattr(bi, name))


def test_augmented_parameter_count_exceeds_base(fx):
    config = small_config(epochs=1)
    model, _ = finetuned(fx, config, rounds=0)
    single = build_model(fx, config)
    grown = model.parameter_counts()
    base = single.parameter_counts()
    assert grown["total"] > base["total"]
    assert grown["char_table"] == base["char_table"]
    assert grown["head"] == base["head"]


def test_select_model_rules():
    single = [CheckpointRecord(0, 0, {"src_dev": 0.5})]
    assert select_model(single, "src_dev") is single[0]
    rising = [
        CheckpointRecord(i, 0, {"src_dev": f}) for i, f in enumerate([0.1, 0.4, 0.9])
    ]
    assert select_model(rising, "src_dev") is rising[-1]
    ties = [
        CheckpointRecord(0, 0, {"src_dev": 0.7}),
        CheckpointRecord(1, 0, {"src_dev": 0.7}),
    ]
    assert select_model(ties, "src_dev") is ties[0]
    crafted = [
        CheckpointRecord(0, 0, {"src_dev": 0.9, "tgt_dev": 0.2}),
        CheckpointRecord(1, 0, {"src_dev": 0.3, "tgt_dev": 0.8}),
    ]
    assert select_model(crafted, "src_dev").step == 0
    assert select_model(crafted, "tgt_dev").step == 1
    with pytest.raises(ValueError):
        select_model([], "src_dev")


def test_snapshot_restore_round_trip(fx):
    config = small_config(epochs=1)
    model = build_model(fx, config)
    state = snapshot_state(model)
    before = {k: v.copy() for k, v in model.all_parameters().items()}
    pretrain_source(
        model, fx.src_train, fx.src_emb, config, Rng(0),
        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)],
    )
    restore_state(model, state)
    after = model.all_parameters()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    # aliasing is intact after a restore
    assert model.named_parameters("src")["head.tag_w"] is model.head["tag_w"]


# a tie with the best (the earliest is kept) and a best that is not last
SCRIPTED = [0.2, 0.5, 0.5, 0.4, 0.5, 0.3] + [0.1] * 40


@pytest.mark.parametrize("scores", [None, SCRIPTED], ids=["real", "scripted"])
@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_training_leaves_model_at_selected_state(fx, monkeypatch, stage,
                                                 scores):
    config = small_config(epochs=2, eval_interval=5, rounds=3, n_steps=10,
                          patience=5)
    model = build_model(fx, config)
    evals = [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)]
    if stage == "finetune":
        model.add_target_encoder(Rng(2))
    storage = model.all_parameters()
    stacked = [(bi, bi.w, bi.u, bi.b) for enc in model.encoders.values()
               for bi in (enc.char, enc.word) if bi is not None]
    states = []
    spy_evaluations(monkeypatch, states, scores)
    if stage == "pretrain":
        records, chosen = pretrain_source(
            model, fx.src_train, fx.src_emb, config, Rng(1), evals)
    else:
        records, chosen = augmented_finetune(
            model, fx.src_train, fx.tgt_train_unlabeled, fx.src_emb,
            fx.tgt_emb, config, Rng(1), evals)
    assert len(states) == len(records) >= 6
    assert chosen is select_model(records, "src_dev")
    if scores is not None:
        assert records.index(chosen) == 1
    selected = states[records.index(chosen)]
    after = model.all_parameters()
    assert after.keys() == selected.keys()
    for name, arr in after.items():
        np.testing.assert_array_equal(arr, selected[name], err_msg=name)
        # restored in place: aliasing holds; a BiLSTM's per-direction
        # tensors are views, new objects on each call
        assert np.shares_memory(arr, storage[name]), name
        assert arr.shape == storage[name].shape
        if not name.startswith("enc."):
            assert arr is storage[name]
    for bi, w, u, b in stacked:
        assert bi.w is w and bi.u is u and bi.b is b
    assert model.named_parameters("src")["head.tag_w"] is model.head["tag_w"]
    if scores is not None:
        assert any(not np.array_equal(after[n], states[-1][n]) for n in after)


class _Snapshot(dict):
    """A tensor snapshot that can be weakly referenced."""


def test_pretrain_holds_one_snapshot(fx, monkeypatch):
    # a second split that improves on its own must not add snapshots
    taken, held_before = [], []

    def snapshot(model):
        held_before.append(sum(ref() is not None for ref in taken))
        state = _Snapshot(snapshot_state(model))
        taken.append(weakref.ref(state))
        return state

    monkeypatch.setattr(trainer_mod, "snapshot_state", snapshot)
    config = small_config(epochs=4, eval_interval=5, batch_size=8, lr0=0.2)
    model = build_model(fx, config)
    records, chosen = pretrain_source(
        model, fx.src_train, fx.src_emb, config, Rng(1),
        [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev),
         EvalSet("src_train", "src", fx.src_emb, fx.src_train)],
    )
    assert chosen is select_model(records, "src_dev")
    assert len(taken) >= 2  # an earlier snapshot was taken and released
    assert held_before == [0] * len(taken)  # one snapshot at a time
    assert all(ref() is None for ref in taken)  # released once restored
    assert all(r.state is None for r in records)


@pytest.mark.parametrize("scores, rounds", [
    ([0.5, 0.6, 0.6, 0.55], 3),  # a tie is no improvement
    ([0.5, 0.5, 0.7, 0.7, 0.7], 4),  # an improvement resets the count
    ([0.5, 0.6, 0.7, 0.8, 0.9, 0.95], 5),  # the round cap
])
def test_finetune_stops_after_patience_rounds_without_improvement(
        fx, monkeypatch, scores, rounds):
    calls = []
    original = trainer_mod.generate_pseudo_labels

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trainer_mod, "generate_pseudo_labels", spy)
    spy_evaluations(monkeypatch, [], scores)
    # one evaluation per round: n_steps < eval_interval
    config = small_config(rounds=5, n_steps=3, eval_interval=50, patience=2)
    model = build_model(fx, config)
    records, _ = augmented_finetune(
        model, fx.src_train, fx.tgt_train_unlabeled, fx.src_emb, fx.tgt_emb,
        config, Rng(3), [EvalSet("src_dev", "src", fx.src_emb, fx.src_dev)])
    assert len(calls) == rounds
    assert len(records) == rounds + 1


def test_multi_seed_report_values():
    runs = [{"f1": v} for v in (70.0, 72.0, 74.0, 76.0, 78.0)]
    report = multi_seed_report(runs)
    assert report["f1"]["mean"] == pytest.approx(74.0)
    assert report["f1"]["max"] == pytest.approx(78.0)
    assert report["f1"]["std"] == pytest.approx(3.1623, abs=1e-4)
    assert report["f1"]["std"] == pytest.approx(
        statistics.stdev([70, 72, 74, 76, 78])
    )
    same = multi_seed_report([{"f1": 5.0}, {"f1": 5.0}])
    assert same["f1"]["std"] == 0.0
    with pytest.raises(UsageError):
        multi_seed_report([{"f1": 1.0}])
