"""Three-stage training pipeline: source pretraining in the common embedding
space, stochastic length-thresholded pseudo-labeling, and joint augmented
fine-tuning of the source and target models around one shared head.

The learning rate follows max(lr0 / (1 + decay * epoch), floor) with the
epoch counter continuing across stages (one fine-tuning round advances it by
one). Models are evaluated every eval_interval batches and at the close of
each stage and fine-tuning round; only the tensor state of the best
evaluation on the selection split is retained, and each stage ends with the
model restored to it. Each stage hands every evaluation record, as it is
made, to its `log` callback, if one is given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import FlatConfig
from .corpus import IOBES, Dataset, TaggedSentence, entity_f1
from .embeddings import DEFAULT_LOAD_LIMIT, apply_mapper
from .errors import NumericalError, UsageError
from .numeric import clipped_sgd_step, dropout_mask
from .tagger import TaggerConfig, backward_pass, predict

VARIANTS = (
    "source_mono",
    "cross_word_nochar",
    "cross_word",
    "cross_shared",
    "cross_augmented",
)
SELECTIONS = ("src_dev", "tgt_dev", "tgt_test")


@dataclass
class TrainingConfig(FlatConfig):
    PREFIX = "train"

    lr0: float = 0.1
    decay: float = 0.01
    lr_floor: float = 0.0001
    clip: float = 5.0
    dropout: float = 0.5
    epochs: int = 30
    batch_size: int = 16
    eval_interval: int = 150
    max_sentence_length: int = 250
    n_steps: int = 0  # fine-tuning steps per round; 0 = one source epoch
    rounds: int = 20  # hard cap on fine-tuning rounds
    patience: int = 5
    variant: str = "cross_word"
    selection: str = "src_dev"
    seed: int = 0
    scheme: str = IOBES
    char_dim: int = 25
    char_hidden: int = 25
    word_hidden: int = 100
    head_hidden: int = 100
    constrained_decoding: bool = False
    emb_limit: int = DEFAULT_LOAD_LIMIT
    source_term: bool = True  # ablation hook: drop the source-batch loss term

    def __post_init__(self):
        self.check((
            ("variant", self.variant in VARIANTS, f"one of {', '.join(VARIANTS)}"),
            ("selection", self.selection in SELECTIONS,
             f"one of {', '.join(SELECTIONS)}"),
            ("lr0", self.lr0 > 0.0, "above 0"),
            ("decay", self.decay >= 0.0, "at least 0"),
            ("lr_floor", self.lr_floor >= 0.0, "at least 0"),
            ("clip", self.clip > 0.0, "above 0"),
            ("batch_size", self.batch_size >= 1, "at least 1"),
            ("eval_interval", self.eval_interval >= 1, "at least 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("epochs", self.epochs >= 0, "at least 0"),
            ("n_steps", self.n_steps >= 0, "at least 0"),
            ("rounds", self.rounds >= 0, "at least 0"),
            ("char_dim", self.char_dim >= 1, "at least 1"),
            ("char_hidden", self.char_hidden >= 1, "at least 1"),
            ("word_hidden", self.word_hidden >= 1, "at least 1"),
            ("head_hidden", self.head_hidden >= 1, "at least 1"),
            ("emb_limit", self.emb_limit >= 1, "at least 1"),
        ))

    @property
    def use_char(self):
        return self.variant != "cross_word_nochar"

    @property
    def tied(self):
        return self.variant in ("cross_shared", "cross_augmented")

    def tagger_config(self, word_dim, tags):
        return TaggerConfig(
            word_dim=word_dim,
            tags=list(tags),
            scheme=self.scheme,
            char_dim=self.char_dim,
            char_hidden=self.char_hidden,
            word_hidden=self.word_hidden,
            head_hidden=self.head_hidden,
            use_char=self.use_char,
            tied=self.tied,
            dropout=self.dropout,
            constrained_decoding=self.constrained_decoding,
        )


def lr_at(config, epoch):
    """max(lr0 / (1 + decay * epoch), floor), exactly."""
    if epoch < 0:
        raise UsageError("epoch must be nonnegative")
    return max(config.lr0 / (1.0 + config.decay * epoch), config.lr_floor)


def common_space_tables(src_table, tgt_table, mapper):
    """Project one side through the mapper so both tables share a space.

    s_to_t maps the source vectors into the target space; t_to_s maps the
    target vectors into the source space. source_mono passes mapper=None and
    keeps both tables native.
    """
    if src_table is not None and tgt_table is not None \
            and src_table.dim != tgt_table.dim:
        raise UsageError("embedding dimensions differ between languages")
    if mapper is None:
        return src_table, tgt_table
    if mapper.direction == "s_to_t":
        return apply_mapper(src_table, mapper.w), tgt_table
    mapped_tgt = apply_mapper(tgt_table, mapper.w) if tgt_table is not None else None
    return src_table, mapped_tgt


@dataclass
class EvalSet:
    name: str  # src_dev | tgt_dev | tgt_test
    lang: str
    table: object
    dataset: Dataset


@dataclass
class CheckpointRecord:
    step: int
    epoch: int
    scores: dict
    lr: float = math.nan
    losses: tuple = (math.nan,) * 3  # mean loss terms since the last record
    state: dict = None  # tensor copies; held only while the record is best


def snapshot_state(model):
    return {name: arr.copy() for name, arr in model.all_parameters().items()}


def restore_state(model, state):
    """Write saved tensor values back in place (aliasing is preserved)."""
    params = model.all_parameters()
    for name, saved in state.items():
        np.copyto(params[name], saved)


def evaluate_model(model, eval_sets):
    """Entity F1 per evaluation split; target splits use the target encoder
    once it exists, the source encoder before that."""
    scores = {}
    for ev in eval_sets:
        lang = ev.lang if ev.lang in model.encoders else "src"
        preds = predict(model, lang, ev.table, [s.tokens for s in ev.dataset])
        scores[ev.name] = entity_f1(ev.dataset, preds).overall.f1
    return scores


class _Tracker:
    """Owns a stage's progress: counts steps, sums each step's loss terms,
    evaluates every config.eval_interval steps and at the close of a stage
    or round, and passes each record to `log`. It also owns model
    selection: a record that strictly improves the selection split takes a
    snapshot of the tensors and releases the one it replaces, so one
    snapshot is held at a time and ties keep the earliest."""

    def __init__(self, model, config, eval_sets, log):
        names = [ev.name for ev in eval_sets]
        if config.selection not in names:
            raise UsageError(
                f"selection split {config.selection} is not evaluated "
                f"(evaluated: {', '.join(names) or 'none'})")
        self.model, self.config, self.eval_sets, self.log = (
            model, config, eval_sets, log)
        self.records = []
        self.best = None  # the record holding the snapshot
        self.step = 0
        self.loss_sum, self.loss_n = np.zeros(3), 0  # since the last record

    def after_step(self, epoch, lr, losses):
        """Count one training step and its (loss_s, loss_ts, loss_tt);
        evaluate when the step completes an eval_interval."""
        self.loss_sum += losses
        self.loss_n += 1
        self.step += 1
        if self.step % self.config.eval_interval == 0:
            self.evaluate(epoch, lr)

    def close(self, epoch, lr):
        """The closing evaluation of a stage or round: evaluate unless the
        last step already was."""
        if self.loss_n or not self.records:
            self.evaluate(epoch, lr)

    def evaluate(self, epoch, lr):
        losses = (tuple(self.loss_sum / self.loss_n) if self.loss_n
                  else CheckpointRecord.losses)
        self.loss_sum, self.loss_n = np.zeros(3), 0
        scores = evaluate_model(self.model, self.eval_sets)
        record = CheckpointRecord(self.step, epoch, scores, lr, losses)
        sel = self.config.selection
        if self.best is None or scores[sel] > self.best.scores[sel]:
            if self.best is not None:
                self.best.state = None
            record.state = snapshot_state(self.model)
            self.best = record
        self.records.append(record)
        if self.log is not None:
            self.log(record)

    def restore_best(self):
        """Put the model at the selected record's tensors and release the
        snapshot; returns (records, selected record)."""
        restore_state(self.model, self.best.state)
        self.best.state = None
        return self.records, self.best


def _prepare_labeled(model, table, dataset, max_len):
    prepared = []
    for sent in dataset:
        if sent.tags is None:
            raise UsageError("labeled dataset required")
        if len(sent) > max_len:
            continue
        prepared.append(model.prepare(table, sent.tokens, sent.tags))
    return prepared


def _draw_batch(rng, prepared, batch_size):
    idx = rng.integers(len(prepared), min(batch_size, len(prepared)))
    return [prepared[i] for i in idx]


def _masks_for(rng, batch, model):
    if model.cfg.dropout <= 0:
        return None
    return [
        dropout_mask(rng, (len(p), model.cfg.input_dim), model.cfg.dropout)
        for p in batch
    ]


def pretrain_source(model, dataset, table, config, rng, eval_sets, log=None):
    """Clipped-SGD training of theta_s on the (mapped) source data.

    Shuffled batches, the epoch-decayed learning rate, an evaluation every
    config.eval_interval batches plus one final evaluation; `log`, if given,
    is called with each CheckpointRecord as it is made. Leaves the model at
    the selected record's tensors and returns (records, selected record).
    """
    tracker = _Tracker(model, config, eval_sets, log)
    prepared = _prepare_labeled(model, table, dataset, config.max_sentence_length)
    if not prepared:
        raise UsageError("empty training dataset")
    params = model.named_parameters("src")
    lr = lr_at(config, 0)
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = rng.permutation(len(prepared))
        for lo in range(0, len(order), config.batch_size):
            batch = [prepared[i] for i in order[lo : lo + config.batch_size]]
            masks = _masks_for(rng, batch, model)
            loss, grads = backward_pass(model, "src", batch, masks)
            clipped_sgd_step(params, grads, lr, config.clip)
            tracker.after_step(epoch, lr, (loss, math.nan, math.nan))
    tracker.close(config.epochs - 1, lr)
    return tracker.restore_best()


@dataclass
class PseudoDataset:
    dataset: Dataset
    threshold: int

    @property
    def sentences(self):
        return self.dataset.sentences


def generate_pseudo_labels(model, table, dataset, rng):
    """Length-thresholded self-labeled target data.

    Draws l uniformly between the observed minimum and maximum sentence
    lengths, keeps sentences no longer than l (the shortest always
    survives), and tags them with the source model.
    """
    if not dataset.sentences:
        raise UsageError("empty target dataset")
    lengths = [len(s) for s in dataset]
    threshold = rng.uniform_int(min(lengths), max(lengths))
    kept = [s for s in dataset if len(s) <= threshold]
    tags = predict(model, "src", table, [s.tokens for s in kept])
    labeled = [TaggedSentence(list(s.tokens), t) for s, t in zip(kept, tags)]
    pseudo = Dataset(labeled, role="train", language=dataset.language,
                     scheme=model.cfg.scheme)
    return PseudoDataset(pseudo, threshold)


def augmented_finetune(model, src_dataset, tgt_dataset, src_table, tgt_table,
                       config, rng, eval_sets, log=None):
    """Joint fine-tuning: per step, theta_s trains on one source batch plus
    one pseudo-labeled target batch, theta_t trains on the target batch; the
    shared head and character table receive gradients from all three terms.

    Pseudo-labels are regenerated with a fresh length threshold every round.
    Stops after config.rounds rounds or config.patience rounds without
    improvement on the selection split. `log`, if given, is called with
    each CheckpointRecord as it is made. Leaves the model at the selected
    record's tensors and returns (records, selected record); the first
    record is the initialization.
    """
    tracker = _Tracker(model, config, eval_sets, log)
    if "tgt" not in model.encoders:
        model.add_target_encoder(rng)
    src_prepared = _prepare_labeled(
        model, src_table, src_dataset, config.max_sentence_length
    )
    if not src_prepared:
        raise UsageError("empty source dataset")
    if not tgt_dataset.sentences:
        raise UsageError("empty target dataset")
    params_s = model.named_parameters("src")
    params_t = model.named_parameters("tgt")
    n_steps = config.n_steps or math.ceil(len(src_prepared) / config.batch_size)
    tracker.evaluate(config.epochs, lr_at(config, config.epochs))
    stall_rounds = 0
    initial_round_loss = None
    for round_idx in range(config.rounds):
        epoch = config.epochs + round_idx
        lr = lr_at(config, epoch)
        best_before = tracker.best
        pseudo = generate_pseudo_labels(model, tgt_table, tgt_dataset, rng)
        tgt_prepared = [
            model.prepare(tgt_table, s.tokens, s.tags)
            for s in pseudo.sentences
        ]
        round_loss = 0.0
        for _ in range(n_steps):
            batch_s = _draw_batch(rng, src_prepared, config.batch_size)
            batch_t = _draw_batch(rng, tgt_prepared, config.batch_size)
            if config.source_term:
                loss_s, grads_s = backward_pass(
                    model, "src", batch_s, _masks_for(rng, batch_s, model))
            else:
                loss_s, grads_s = float("nan"), {}
            loss_ts, grads_ts = backward_pass(
                model, "src", batch_t, _masks_for(rng, batch_t, model))
            for name, g in grads_ts.items():
                if name in grads_s:
                    grads_s[name] += g
                else:
                    grads_s[name] = g
            clipped_sgd_step(params_s, grads_s, lr, config.clip)
            loss_tt, grads_tt = backward_pass(
                model, "tgt", batch_t, _masks_for(rng, batch_t, model))
            clipped_sgd_step(params_t, grads_tt, lr, config.clip)
            round_loss += float(np.nansum([loss_s, loss_ts, loss_tt]))
            tracker.after_step(epoch, lr, (loss_s, loss_ts, loss_tt))
        round_loss /= n_steps
        if initial_round_loss is None:
            initial_round_loss = round_loss
        elif round_loss > 10.0 * initial_round_loss:
            raise NumericalError(
                f"fine-tuning diverged: round loss {round_loss:.3f} vs "
                f"initial {initial_round_loss:.3f}"
            )
        tracker.close(epoch, lr)
        if tracker.best is not best_before:
            stall_rounds = 0
        else:
            stall_rounds += 1
            if stall_rounds >= config.patience:
                break
    return tracker.restore_best()


def multi_seed_report(run_metrics):
    """Sample mean, standard deviation (n-1 denominator), and maximum for
    every metric over per-seed runs."""
    if len(run_metrics) < 2:
        raise UsageError("at least two runs are required")
    keys = sorted(set().union(*(m.keys() for m in run_metrics)))
    report = {}
    for key in keys:
        values = [m[key] for m in run_metrics if key in m]
        arr = np.array(values, dtype=np.float64)
        report[key] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            "max": float(arr.max()),
        }
    return report
