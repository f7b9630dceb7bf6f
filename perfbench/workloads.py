"""The three workloads: what each generates, runs and checks.

Every workload is a closed loop with one client: its `zrxner` commands run
one after another, one process at a time. A workload has

- `prepare(ctx)`: writes the seeded inputs (untimed) and returns their
  properties;
- `setup_commands(ctx)`: the same commands on a minimal input (one
  sentence, or no alignment steps) with the same tables or checkpoint, whose
  wall time is the fixed cost of each command, each with the check of its
  outputs;
- `iteration(ctx, traced)`: one pass over the timed commands, with output
  checks; it returns each command's wall time and the quality reached.
"""

import json
import math
import os
import shutil
import sys
import time

import numpy as np

import gen

# shared by every tagger workload: paper dimensions are the program defaults
# (word 300, char 25/25, word and head hidden 100, batch 16, 17 IOBES tags)
TRAIN_FLAGS = ("--variant", "cross_shared", "--input-scheme", "IOB2",
               "--epochs", "1", "--lr0", "0.5", "--dropout", "0.1",
               "--seed", "0")


class Context:
    """Work directory, environment and record of every command of a run."""

    def __init__(self, launcher, root, workdir, seed, deadline):
        self.launcher = launcher
        self.root = root
        self.dir = workdir
        self.seed = seed
        self.deadline = deadline
        self.results = []
        self.dumps = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def path(self, name):
        return os.path.join(self.dir, name)

    def zrxner(self, name, args, traced=False):
        if traced:
            run_id = f"{name}-{len(self.dumps)}"
            dump = self.path(f"spans-{run_id}.json")
            self.dumps.append(dump)
            argv = [sys.executable,
                    os.path.join(self.root, "perfbench", "traced_cli.py"),
                    dump, run_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "zrxner.cli", *args]
        timeout = max(5.0, self.deadline - time.monotonic())
        result = self.launcher.run(name, argv, self.env, self.dir, timeout)
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            result.problems.append(f"exit code {result.returncode}: {tail[0]}")
        self.results.append(result)
        return result


class Iteration:
    def __init__(self):
        self.walls = {}  # command name -> wall seconds, summed over its runs
        self.quality = float("nan")

    def add(self, result):
        self.walls[result.name] = self.walls.get(result.name, 0.0) + result.wall_s
        return result


# ---------------------------------------------------------------------------
# output checks (each appends to the failing command's problem list)


def load_problem(path):
    """None if the model file loads through persist, else why not."""
    from zrxner.persist import load_model

    try:
        load_model(path)
    except Exception as exc:  # any failure to load is a failed operation
        return f"{os.path.basename(path)} does not load: {exc}"
    return None


def check_loads_model(result, path):
    problem = load_problem(path)
    if problem:
        result.problems.append(problem)


def check_mapper(result, path, tol=1e-6):
    """Loads through persist and is orthogonal within tol; returns W."""
    from zrxner.persist import load_mapper

    try:
        mapper, _ = load_mapper(path)
    except Exception as exc:
        result.problems.append(f"{os.path.basename(path)} does not load: {exc}")
        return None
    w = np.asarray(mapper.w, dtype=np.float64)
    err = float(np.abs(w.T @ w - np.eye(w.shape[0])).max())
    if err > tol:
        result.problems.append(f"mapper orthogonality error {err:.2e} > {tol}")
    return w


def iob2_problem(tags):
    """None if tags are a valid IOB2 sequence, else what is wrong."""
    prev = "O"
    for i, tag in enumerate(tags):
        if tag != "O" and not (tag[:2] in ("B-", "I-") and len(tag) > 2):
            return f"position {i}: {tag!r} is not an IOB2 tag"
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            return f"position {i}: {tag!r} follows {prev!r}"
        prev = tag
    return None


def check_tag_output(result, sentences, pred_path):
    try:
        pred = gen.read_conll(pred_path)
    except OSError as exc:
        result.problems.append(f"no tag output: {exc}")
        return
    if len(pred) != len(sentences):
        result.problems.append(
            f"{len(pred)} tagged sentences for {len(sentences)} input sentences")
        return
    for i, ((tokens, _), (out_tokens, out_tags)) in enumerate(zip(sentences, pred)):
        if out_tokens != tokens:
            result.problems.append(f"sentence {i}: tokens differ from the input")
            return
        problem = iob2_problem(out_tags or [])
        if out_tags is None or len(out_tags) != len(tokens) or problem:
            result.problems.append(f"sentence {i}: {problem or 'tags missing'}")
            return


def eval_f1(result):
    """Overall F1 (%) printed by `zrxner eval`, or nan."""
    for line in result.stdout.splitlines():
        cols = line.split("\t")
        if cols[0] == "ALL" and len(cols) == 4:
            return float(cols[3])
    result.problems.append("eval printed no ALL line")
    return float("nan")


# ---------------------------------------------------------------------------
# train: pretrain then finetune


class Train:
    name = "train"
    why = ("pretrain then finetune on a Zipfian bilingual CoNLL corpus: tagger "
           "forward/backward with token reuse, trainer evaluation and "
           "pseudo-labels, SGD; never aligns")
    n_o, n_ent = 3000, 60
    n_train, n_dev, n_tgt_train, n_tgt_test = 800, 30, 100, 100
    n_steps = 4

    def prepare(self, ctx):
        rng = np.random.default_rng(ctx.seed)
        lex = gen.Lexicon(rng, self.n_o, self.n_ent)
        words, vecs = lex.table(self.n_o, self.n_ent)
        tgt_words = [gen.cipher(w) for w in words]
        tgt_vecs, omega = gen.rotate(rng, vecs, noise=0.05)
        gen.write_vec(ctx.path("src.vec"), words, vecs)
        gen.write_vec(ctx.path("tgt.vec"), tgt_words, tgt_vecs)
        gen.save_rotation_mapper(ctx.path("mapper.zrx"), omega)

        def corpus(n):
            return gen.make_sentences(rng, lex, gen.stratified_lengths(n),
                                      self.n_o, self.n_ent, zipf_s=1.0)

        src_train = corpus(self.n_train)
        tgt_train = gen.to_target(corpus(self.n_tgt_train))
        tgt_test = gen.to_target(corpus(self.n_tgt_test))
        gen.write_conll(ctx.path("src.train"), src_train)
        gen.write_conll(ctx.path("src.dev"), corpus(self.n_dev))
        gen.write_conll(ctx.path("tgt.train"), tgt_train, with_tags=False)
        gen.write_conll(ctx.path("tgt.test"), tgt_test)
        one = [gen.all_tags_sentence(lex)]
        gen.write_conll(ctx.path("one.src"), one)
        gen.write_conll(ctx.path("one.tgt"), gen.to_target(one))
        gen.write_conll(ctx.path("one.tgt.raw"), gen.to_target(one),
                        with_tags=False)
        return {
            "src_train": gen.properties(src_train, words, ctx.seed),
            "tgt_train": gen.properties(tgt_train, tgt_words, ctx.seed),
            "tgt_test": gen.properties(tgt_test, tgt_words, ctx.seed),
            "table_rows": len(words), "table_dim": vecs.shape[1],
        }

    @staticmethod
    def _pretrain(train, dev, out):
        return ["pretrain", "--train", train, "--dev", dev,
                "--src-emb", "src.vec", "--tgt-emb", "tgt.vec",
                "--mapper", "mapper.zrx", "--eval-interval", "25",
                *TRAIN_FLAGS, "--out", out]

    @staticmethod
    def _finetune(ckpt, src, tgt_raw, src_dev, tgt_test, steps, out):
        return ["finetune", "--checkpoint", ckpt, "--src-train", src,
                "--tgt-train", tgt_raw, "--src-dev", src_dev,
                "--tgt-test", tgt_test, "--input-scheme", "IOB2",
                "--select", "src_dev", "--seeds", "0", "--rounds", "1",
                "--n-steps", str(steps), "--eval-interval", "1000",
                "--out", out, "--manifest", out + ".json"]

    @staticmethod
    def _check_finetune(ctx, result, out):
        """Target test F1 of the selected checkpoint, which must load."""
        try:
            with open(ctx.path(out + ".json"), "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            check_loads_model(result, ctx.path(os.path.basename(
                manifest["selected_checkpoint"])))
            return float(manifest["metrics"]["0"]["tgt_test"])
        except (OSError, KeyError, ValueError) as exc:
            result.problems.append(f"bad finetune manifest: {exc}")
            return float("nan")

    def setup_commands(self, ctx):
        return [
            ("pretrain", self._pretrain("one.src", "one.src", "setup-pre.zrx"),
             lambda res: check_loads_model(res, ctx.path("setup-pre.zrx"))),
            ("finetune", self._finetune("setup-pre.zrx", "one.src", "one.tgt.raw",
                                        "one.src", "one.tgt", 1, "setup-ft"),
             lambda res: self._check_finetune(ctx, res, "setup-ft")),
        ]

    def iteration(self, ctx, traced):
        it = Iteration()
        pre = it.add(ctx.zrxner("pretrain", self._pretrain(
            "src.train", "src.dev", "pre.zrx"), traced))
        if pre.returncode != 0:
            return it
        check_loads_model(pre, ctx.path("pre.zrx"))
        ft = it.add(ctx.zrxner("finetune", self._finetune(
            "pre.zrx", "src.train", "tgt.train", "src.dev", "tgt.test",
            self.n_steps, "ft"), traced))
        if ft.returncode == 0:
            it.quality = self._check_finetune(ctx, ft, "ft")
        return it

    def named(self, compute, quality):
        return {
            "pretrain_sent_per_s": (self.n_train / compute["pretrain"], "sent/s"),
            "finetune_steps_per_s": (self.n_steps / compute["finetune"], "steps/s"),
            "tgt_test_f1": (quality, "%"),
        }


# ---------------------------------------------------------------------------
# tag: tag a large open-vocabulary target file, then score it


class Tag:
    name = "tag"
    why = ("tag and score a large open-vocabulary target file with a loaded "
           "checkpoint: forward-only tagger plus Viterbi with little token "
           "reuse; never trains or aligns")
    n_o, n_ent = 20000, 60
    table_o, table_ent = 19000, 60
    n_train, n_tag = 800, 600
    # The lexicon and the checkpoint come from this seed whatever --seed is,
    # so the checkpoint is trained once per checkout and kept in .bench_out;
    # --seed draws the sentences to tag.
    model_seed = 0
    scored = None  # (tag output bytes, F1) of the first scored pass

    def prepare(self, ctx):
        model_rng = np.random.default_rng(self.model_seed)
        lex = gen.Lexicon(model_rng, self.n_o, self.n_ent)
        words, vecs = lex.table(self.table_o, self.table_ent)
        tgt_words = [gen.cipher(w) for w in words]
        kept = os.path.join(ctx.root, ".bench_out", "tag-model.zrx")
        if load_problem(kept):
            self._train_model(ctx, model_rng, lex, words, vecs, tgt_words, kept)
        if os.path.exists(kept):
            shutil.copyfile(kept, ctx.path("model.zrx"))
        rng = np.random.default_rng(ctx.seed)
        # drawn flat from the whole vocabulary, so few tokens repeat in a batch
        self.sentences = gen.to_target(gen.make_sentences(
            rng, lex, gen.stratified_lengths(self.n_tag), self.n_o,
            self.n_ent, zipf_s=0.0))
        gen.write_conll(ctx.path("tag.gold"), self.sentences)
        gen.write_conll(ctx.path("tag.in"), self.sentences, with_tags=False)
        gen.write_conll(ctx.path("one.in"), self.sentences[:1], with_tags=False)
        return {
            "tag_input": gen.properties(self.sentences, tgt_words, ctx.seed),
            "table_rows": len(words), "table_dim": vecs.shape[1],
        }

    def _train_model(self, ctx, rng, lex, words, vecs, tgt_words, kept):
        """The checkpoint to tag with, trained untimed; kept only if it
        loads."""
        tgt_vecs, omega = gen.rotate(rng, vecs, noise=0.05)
        gen.write_vec(ctx.path("src.vec"), words, vecs)
        gen.write_vec(ctx.path("tgt.vec"), tgt_words, tgt_vecs)
        gen.save_rotation_mapper(ctx.path("mapper.zrx"), omega)
        train = gen.make_sentences(rng, lex, gen.stratified_lengths(self.n_train),
                                   self.table_o, self.table_ent, zipf_s=1.0)
        gen.write_conll(ctx.path("src.train"), train)
        gen.write_conll(ctx.path("src.dev"), train[:20])
        ckpt = ctx.zrxner("checkpoint", [
            "pretrain", "--train", "src.train", "--dev", "src.dev",
            "--src-emb", "src.vec", "--tgt-emb", "tgt.vec",
            "--mapper", "mapper.zrx", "--eval-interval", "1000", *TRAIN_FLAGS,
            "--out", "model.zrx"])
        if ckpt.returncode != 0:
            return
        check_loads_model(ckpt, ctx.path("model.zrx"))
        if ckpt.ok:
            shutil.copyfile(ctx.path("model.zrx"), kept + ".tmp")
            os.replace(kept + ".tmp", kept)

    @staticmethod
    def _tag(inp, out):
        return ["tag", "--checkpoint", "model.zrx", "--input", inp,
                "--output", out, "--language", "tgt", "--to-iob2"]

    def setup_commands(self, ctx):
        return [("tag", self._tag("one.in", "one.pred"),
                 lambda res: check_tag_output(res, self.sentences[:1],
                                              ctx.path("one.pred")))]

    def iteration(self, ctx, traced):
        """Tag, then score with `eval` twice on the first pass and on a
        traced pass; a plain repeat must write the first pass's output."""
        it = Iteration()
        tag = it.add(ctx.zrxner("tag", self._tag("tag.in", "tag.pred"), traced))
        if tag.returncode != 0:
            return it
        check_tag_output(tag, self.sentences, ctx.path("tag.pred"))
        if tag.problems:
            return it
        with open(ctx.path("tag.pred"), "rb") as fh:
            pred = fh.read()
        if self.scored is not None and not traced:
            if pred != self.scored[0]:
                tag.problems.append("tag output differs from the first pass")
            it.quality = self.scored[1]
            return it
        scores = []
        for _ in range(2):
            ev = it.add(ctx.zrxner("eval", ["eval", "--gold", "tag.gold",
                                            "--pred", "tag.pred"], traced))
            scores.append(eval_f1(ev) if ev.returncode == 0 else float("nan"))
        if scores[0] != scores[1]:
            ev.problems.append(f"eval gave {scores[0]} then {scores[1]}")
        it.quality = scores[0]
        self.scored = (pred, scores[0])
        return it

    def named(self, compute, quality):
        return {
            "tag_sent_per_s": (self.n_tag / compute["tag"], "sent/s"),
            "tag_f1": (quality, "%"),
        }


# ---------------------------------------------------------------------------
# align: adversarial game, CSLS criterion, dictionary induction, Procrustes


class Align:
    name = "align"
    why = ("align two 10k x 300 .vec tables: .vec parsing, the adversarial "
           "game, CSLS criterion time and memory, dictionary induction and "
           "Procrustes; never tags")
    rows = 10000
    angle_deg = 77.0  # rotation that leaves the tables alignable in few steps
    p1_queries = 2000

    def prepare(self, ctx):
        rng = np.random.default_rng(ctx.seed)
        spectrum = np.linspace(1.0, 0.25, gen.DIM)
        x = rng.normal(size=(self.rows, gen.DIM)) * spectrum
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        # a known rotation: every plane of a random basis turned by angle_deg
        basis = gen.random_orthogonal(rng, gen.DIM)
        c, s = math.cos(math.radians(self.angle_deg)), math.sin(
            math.radians(self.angle_deg))
        turn = np.eye(gen.DIM)
        for i in range(0, gen.DIM - 1, 2):
            turn[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
        omega = basis @ turn @ basis.T
        y = x @ omega + 0.02 * rng.normal(size=x.shape) / math.sqrt(gen.DIM)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        words = gen.word_strings(rng, self.rows, set())
        for rank in range(0, self.rows, gen.NUMERAL_EVERY):
            words[rank] = str(1000 + rank)
        gen.write_vec(ctx.path("src.vec"), words, x)
        gen.write_vec(ctx.path("tgt.vec"), [gen.cipher(w) for w in words], y)
        self.x, self.y = x, y
        return {"table_rows": self.rows, "table_dim": gen.DIM,
                "identical_words": len(range(0, self.rows, gen.NUMERAL_EVERY)),
                "rotation_angle_deg": self.angle_deg}

    def _align(self, out, steps, refine):
        return ["align", "--src-emb", "src.vec", "--tgt-emb", "tgt.vec",
                "--direction", "s2t", "--seed", "0", "--w-steps", str(steps),
                "--restarts", "1", "--refine-iters", str(refine),
                "--vocab-cap", str(self.rows), "--dict-top-n", "4000",
                "--out", out]

    def setup_commands(self, ctx):
        return [("align", self._align("setup-map.zrx", 0, 0),
                 lambda res: check_mapper(res, ctx.path("setup-map.zrx")))]

    def iteration(self, ctx, traced):
        it = Iteration()
        res = it.add(ctx.zrxner("align", self._align("map.zrx", 100, 1), traced))
        if res.returncode != 0:
            return it
        w = check_mapper(res, ctx.path("map.zrx"))
        if w is not None:
            it.quality = self.precision_at_1(w)
        return it

    def precision_at_1(self, w):
        """% of source words whose mapped vector's nearest target (cosine)
        is its true translation (word i <-> word i)."""
        mapped = self.x[: self.p1_queries] @ w.T
        best = (mapped @ self.y.T).argmax(axis=1)
        return 100.0 * float((best == np.arange(len(best))).mean())

    def named(self, compute, quality):
        return {"align_s": (compute["align"], "s"), "align_p1": (quality, "%")}


WORKLOADS = {wl.name: wl for wl in (Train, Tag, Align)}
