"""Spans and counts recorded around calls into the program's modules.

`install()` wraps the public functions of each layer (at the defining module
and at the modules that import them by name) so that every call records a
span: name, start, end, parent span and run id. Counts of work (tokens,
cosines, rows, bytes) are kept beside the spans. Everything stays in memory
until `Recorder.dump()` writes it out. A function the program no longer has
is listed as absent instead of failing the run.

`layer_metrics()` turns the dumps of one traced workload into the per-layer
metrics.
"""

import importlib
import json
import math
import os
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

# span name, defining module, attribute, other modules that import it by name
HOOKS = (
    ("tagger.backward_pass", "tagger", "backward_pass", ("trainer",)),
    ("tagger.predict", "tagger", "predict", ("trainer", "cli")),
    ("tagger.viterbi", "tagger", "viterbi", ()),
    ("tagger.crf_nll_grads", "tagger", "crf_nll_grads", ()),
    ("tagger.sentence_forward", "tagger", "sentence_forward", ()),
    ("tagger.sentence_backward", "tagger", "sentence_backward", ()),
    ("tagger.bilstm_final", "tagger", "bilstm_final", ()),
    ("tagger.bilstm_final_backward", "tagger", "bilstm_final_backward", ()),
    ("tagger.bilstm_states", "tagger", "bilstm_states", ()),
    ("tagger.bilstm_states_backward", "tagger", "bilstm_states_backward", ()),
    ("tagger.prepare", "tagger", "Tagger.prepare", ()),
    ("trainer.pretrain_source", "trainer", "pretrain_source", ("cli",)),
    ("trainer.evaluate_model", "trainer", "evaluate_model", ()),
    ("trainer.generate_pseudo_labels", "trainer", "generate_pseudo_labels", ()),
    ("trainer.augmented_finetune", "trainer", "augmented_finetune", ("cli",)),
    ("trainer.snapshot_state", "trainer", "snapshot_state", ("cli",)),
    ("numeric.clipped_sgd_step", "numeric", "clipped_sgd_step", ("trainer",)),
    ("align.adversarial_train", "align", "adversarial_train", ()),
    ("align.play_game", "align", "_play_game", ()),
    ("align.unsupervised_criterion", "align", "unsupervised_criterion", ()),
    ("align.csls_top1", "align", "csls_top1", ()),
    ("align.induce_dictionary", "align", "induce_dictionary", ()),
    ("align.procrustes", "align", "procrustes", ()),
    ("align.refine", "align", "refine", ()),
    ("embeddings.load_vec_text", "embeddings", "load_vec_text", ("cli",)),
    ("embeddings.normalize", "embeddings", "normalize", ("cli",)),
    ("embeddings.apply_mapper", "embeddings", "apply_mapper", ("trainer",)),
    ("persist.load_model", "persist", "load_model", ("cli",)),
    ("persist.save_model", "persist", "save_model", ("cli",)),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", ("persist",)),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", ("persist",)),
    ("corpus.read_conll", "corpus", "read_conll", ("cli",)),
    ("corpus.write_conll", "corpus", "write_conll", ("cli",)),
    ("corpus.entity_f1", "corpus", "entity_f1", ("cli", "trainer")),
)


def _safe_len(x):
    try:
        return len(x)
    except TypeError:
        return 0


def _count_tokens(rec, args, result):
    rec.counts["tagger.tokens"] += _safe_len(args[2]) if len(args) > 2 else 0


def _count_steps(rec, args, result):
    rec.counts["align.adversarial.steps"] += getattr(args[3], "w_steps", 0)


def _count_cosines(rec, args, result):
    rows = [getattr(a, "shape", (_safe_len(a),))[0] for a in args[:2]]
    rec.counts["align.csls_top1.cosines"] += rows[0] * rows[1]


def _count_pairs(rec, args, result):
    rec.counts["align.dictionary_pairs"] = _safe_len(getattr(result, "pairs", ()))


def _count_rows(rec, args, result):
    rec.counts["embeddings.load_vec_text.rows"] += _safe_len(result)


def _count_pseudo(rec, args, result):
    rec.counts["trainer.pseudo.labelled"] += _safe_len(
        getattr(result, "sentences", ()))
    rec.counts["trainer.pseudo.offered"] += _safe_len(
        getattr(args[2], "sentences", ()))


def _count_bytes(rec, args, result):
    try:
        rec.counts["checkpoint.bytes_written"] += os.path.getsize(args[0])
    except (OSError, TypeError, IndexError):
        pass


COUNTERS = {
    "tagger.sentence_forward": _count_tokens,
    "align.play_game": _count_steps,
    "align.csls_top1": _count_cosines,
    "align.induce_dictionary": _count_pairs,
    "embeddings.load_vec_text": _count_rows,
    "trainer.generate_pseudo_labels": _count_pseudo,
    "checkpoint.save_checkpoint": _count_bytes,
}
# calls measured with tracemalloc: peak traced allocation during the call
ALLOC_PEAK = ("align.csls_top1",)


class Recorder:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.absent = {}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        alloc = name in ALLOC_PEAK

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)
                self.stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), "peaks": dict(self.peaks),
                       "absent": self.absent}, fh)


def install(run_id):
    """Wrap every hooked function of the package; returns the Recorder."""
    rec = Recorder(run_id)
    for name, module, attr, sites in HOOKS:
        try:
            mod = importlib.import_module(f"zrxner.{module}")
        except ImportError as exc:
            rec.absent[name] = f"module {module} missing ({exc})"
            continue
        owner, leaf = mod, attr
        if "." in attr:
            cls_name, leaf = attr.split(".", 1)
            owner = getattr(mod, cls_name, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            rec.absent[name] = f"zrxner.{module}.{attr} no longer exists"
            continue
        wrapped = rec.wrap(name, fn)
        setattr(owner, leaf, wrapped)
        for site in sites:
            try:
                site_mod = importlib.import_module(f"zrxner.{site}")
            except ImportError:
                continue
            if getattr(site_mod, leaf, None) is fn:
                setattr(site_mod, leaf, wrapped)
    return rec


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Duration of each span minus the part of it that its children cover.

    spans are (name, start, end, parent index) rows; children may nest
    arbitrarily and overlap one another.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


PERCENTILES = (99.9, 99.0, 90.0, 50.0)
BEYOND = 10  # samples a reported percentile needs above it


def top_percentile(n):
    """Highest of PERCENTILES with at least BEYOND of n samples above it, or
    None when even the median has fewer."""
    for p in PERCENTILES:
        if n * (100 - Fraction(str(p))) >= 100 * BEYOND:  # exact arithmetic
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def _merge(dumps):
    """All spans of several dumps with per-span self times, by name."""
    durations = defaultdict(list)
    selfs = defaultdict(list)
    counts = defaultdict(float)
    peaks = defaultdict(float)
    absent = {}
    for dump in dumps:
        spans = dump["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            durations[span[0]].append(span[2] - span[1])
            selfs[span[0]].append(self_s)
        for key, value in dump["counts"].items():
            if key == "align.dictionary_pairs":
                counts[key] = value  # size of the last induced dictionary
            else:
                counts[key] += value
        for key, value in dump["peaks"].items():
            peaks[key] = max(peaks[key], value)
        absent.update(dump["absent"])
    return durations, selfs, counts, peaks, absent


def layer_metrics(dumps):
    """(metrics {name: (value, unit)}, absent {name: reason}, detail).

    Metrics of layers a workload never calls read 0; metrics whose hook is
    missing from the program read 0 and are listed in `absent`.
    """
    durations, selfs, counts, peaks, hook_absent = _merge(dumps)
    metrics, absent, detail = {}, {}, {}

    def need(metric, *hooks):
        for hook in hooks:
            if hook in hook_absent:
                absent[metric] = hook_absent[hook]
                metrics[metric] = (0.0, metrics.get(metric, (0, ""))[1])
                return False
        return True

    def total(hook):
        return float(sum(durations.get(hook, ())))

    def self_total(hook):
        return float(sum(selfs.get(hook, ())))

    def put(metric, value, unit, *hooks):
        metrics[metric] = (value, unit)
        need(metric, *hooks)

    def timed(prefix, hook):
        samples = [d * 1000.0 for d in durations.get(hook, ())]
        put(f"{prefix}.calls", float(len(samples)), "count", hook)
        top = top_percentile(len(samples))
        detail[prefix] = {"samples": len(samples), "top_percentile": top,
                          "ms_top": percentile(samples, top) if top else None}
        for p in (50.0, 90.0):
            metric = f"{prefix}.ms_p{int(p)}"
            if samples and top is not None and top >= p:
                put(metric, percentile(samples, p), "ms", hook)
            else:
                put(metric, 0.0, "ms", hook)
                if samples and metric not in absent:
                    absent[metric] = (f"{len(samples)} samples: fewer than ten "
                                      f"beyond p{int(p)}")

    timed("tagger.backward_pass", "tagger.backward_pass")
    timed("tagger.predict", "tagger.predict")
    put("tagger.viterbi.calls", float(len(durations.get("tagger.viterbi", ()))),
        "count", "tagger.viterbi")
    put("tagger.viterbi.s", total("tagger.viterbi"), "s", "tagger.viterbi")
    put("tagger.char_fwd.s", total("tagger.bilstm_final"), "s",
        "tagger.bilstm_final")
    put("tagger.char_bwd.s", total("tagger.bilstm_final_backward"), "s",
        "tagger.bilstm_final_backward")
    tokens = counts.get("tagger.tokens", 0.0)
    runs = len(durations.get("tagger.bilstm_final", ()))
    put("tagger.char_encoder.runs_per_token", runs / tokens if tokens else 0.0,
        "ratio", "tagger.bilstm_final", "tagger.sentence_forward")
    put("tagger.word_fwd.s", total("tagger.bilstm_states"), "s",
        "tagger.bilstm_states")
    put("tagger.word_bwd.s", total("tagger.bilstm_states_backward"), "s",
        "tagger.bilstm_states_backward")
    put("tagger.head_fwd.s", self_total("tagger.sentence_forward"), "s",
        "tagger.sentence_forward", "tagger.bilstm_final", "tagger.bilstm_states")
    put("tagger.head_bwd.s", self_total("tagger.sentence_backward"), "s",
        "tagger.sentence_backward", "tagger.bilstm_final_backward",
        "tagger.bilstm_states_backward")
    put("tagger.crf_fwd_bwd.s", total("tagger.crf_nll_grads"), "s",
        "tagger.crf_nll_grads")
    put("tagger.prepare.s", total("tagger.prepare"), "s", "tagger.prepare")

    put("trainer.pretrain_source.s", total("trainer.pretrain_source"), "s",
        "trainer.pretrain_source")
    put("trainer.evaluate_model.calls",
        float(len(durations.get("trainer.evaluate_model", ()))), "count",
        "trainer.evaluate_model")
    put("trainer.evaluate_model.s", total("trainer.evaluate_model"), "s",
        "trainer.evaluate_model")
    pseudo_s = total("trainer.generate_pseudo_labels")
    labelled = counts.get("trainer.pseudo.labelled", 0.0)
    offered = counts.get("trainer.pseudo.offered", 0.0)
    put("trainer.generate_pseudo_labels.s", pseudo_s, "s",
        "trainer.generate_pseudo_labels")
    put("trainer.generate_pseudo_labels.sent_per_s",
        labelled / pseudo_s if pseudo_s else 0.0, "sent/s",
        "trainer.generate_pseudo_labels")
    put("trainer.pseudo.kept_share", labelled / offered if offered else 0.0,
        "ratio", "trainer.generate_pseudo_labels")
    put("trainer.augmented_finetune.s", total("trainer.augmented_finetune"), "s",
        "trainer.augmented_finetune")
    put("trainer.snapshot_state.calls",
        float(len(durations.get("trainer.snapshot_state", ()))), "count",
        "trainer.snapshot_state")
    put("trainer.snapshot_state.s", total("trainer.snapshot_state"), "s",
        "trainer.snapshot_state")

    put("numeric.clipped_sgd_step.calls",
        float(len(durations.get("numeric.clipped_sgd_step", ()))), "count",
        "numeric.clipped_sgd_step")
    put("numeric.clipped_sgd_step.s", total("numeric.clipped_sgd_step"), "s",
        "numeric.clipped_sgd_step")

    adversarial_self = (self_total("align.adversarial_train")
                        + self_total("align.play_game"))
    steps = counts.get("align.adversarial.steps", 0.0)
    put("align.adversarial.self_s", adversarial_self, "s",
        "align.adversarial_train")
    put("align.adversarial.ms_per_step",
        1000.0 * adversarial_self / steps if steps else 0.0, "ms",
        "align.adversarial_train", "align.play_game")
    criterion = [d * 1000.0 for d in durations.get("align.unsupervised_criterion", ())]
    put("align.criterion.calls", float(len(criterion)), "count",
        "align.unsupervised_criterion")
    put("align.criterion.ms_p50", percentile(criterion, 50) if criterion else 0.0,
        "ms", "align.unsupervised_criterion")
    put("align.csls_top1.calls", float(len(durations.get("align.csls_top1", ()))),
        "count", "align.csls_top1")
    put("align.csls_top1.s", total("align.csls_top1"), "s", "align.csls_top1")
    put("align.csls_top1.cosines", counts.get("align.csls_top1.cosines", 0.0),
        "count", "align.csls_top1")
    put("align.csls_top1.peak_alloc_mb", peaks.get("align.csls_top1", 0.0), "MB",
        "align.csls_top1")
    put("align.induce_dictionary.s", total("align.induce_dictionary"), "s",
        "align.induce_dictionary")
    put("align.dictionary_pairs", counts.get("align.dictionary_pairs", 0.0),
        "count", "align.induce_dictionary")
    put("align.procrustes.s", total("align.procrustes"), "s", "align.procrustes")
    put("align.refine.s", total("align.refine"), "s", "align.refine")

    load_s = total("embeddings.load_vec_text")
    put("embeddings.load_vec_text.s", load_s, "s", "embeddings.load_vec_text")
    put("embeddings.load_vec_text.rows_per_s",
        counts.get("embeddings.load_vec_text.rows", 0.0) / load_s if load_s else 0.0,
        "rows/s", "embeddings.load_vec_text")
    put("embeddings.normalize.s", total("embeddings.normalize"), "s",
        "embeddings.normalize")
    put("embeddings.apply_mapper.s", total("embeddings.apply_mapper"), "s",
        "embeddings.apply_mapper")

    put("persist.load_model.s", total("persist.load_model"), "s",
        "persist.load_model")
    put("persist.save_model.s", total("persist.save_model"), "s",
        "persist.save_model")
    put("checkpoint.load_checkpoint.s", total("checkpoint.load_checkpoint"), "s",
        "checkpoint.load_checkpoint")
    put("checkpoint.bytes_written", counts.get("checkpoint.bytes_written", 0.0),
        "bytes", "checkpoint.save_checkpoint")

    put("corpus.read_conll.s", total("corpus.read_conll"), "s",
        "corpus.read_conll")
    put("corpus.write_conll.s", total("corpus.write_conll"), "s",
        "corpus.write_conll")
    put("corpus.entity_f1.s", total("corpus.entity_f1"), "s", "corpus.entity_f1")

    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", total(f"cli.{command}"), "s")
    return metrics, absent, detail


CLI_COMMANDS = ("align", "pretrain", "finetune", "tag", "eval")
