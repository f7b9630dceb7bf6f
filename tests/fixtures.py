"""Synthetic fixtures: rotated embedding pairs and a bilingual NER corpus."""

import numpy as np

from zrxner.corpus import IOB2, Dataset, TaggedSentence
from zrxner.embeddings import EmbeddingTable, normalize


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def synthetic_pair(seed, n=300, d=16, noise=0.0):
    """Source table, target table (rotated source + noise), and the rotation.

    Rows are anisotropic gaussians, unit-normalized like the real pipeline.
    Word i of the target is the translation of word i of the source.
    """
    rng = np.random.default_rng(seed)
    spectrum = np.linspace(1.0, 0.25, d)
    x = rng.normal(size=(n, d)) * spectrum
    omega = random_orthogonal(rng, d)
    y = x @ omega
    if noise:
        y = y + rng.normal(size=y.shape) * noise
    src = EmbeddingTable([f"s{i}" for i in range(n)], normalize(x), "src")
    tgt = EmbeddingTable([f"t{i}" for i in range(n)], normalize(y), "tgt")
    return src, tgt, omega


def precision_at_1(source_table, target_table, mapper, k=10):
    """Fraction of target words whose CSLS top-1 source is their true twin."""
    from zrxner.align import csls_top1

    mapped = target_table.vectors @ mapper.w.T
    best, _ = csls_top1(mapped, source_table.vectors, k)
    return float((best == np.arange(len(target_table))).mean())


# ---------------------------------------------------------------------------
# Bilingual NER corpus


_CIPHER = str.maketrans(
    "abcdefghijklmnopqrstuvwxyz", "kzyxwvutsrqponmlijhgfedcba"
)


def cipher_word(word):
    """Bijective rename preserving the capitalization pattern."""
    out = word.lower().translate(_CIPHER)
    if word[0].isupper():
        out = out.capitalize()
    return out + "u"


class BilingualFixture:
    """Generated two-language NER corpus with a shared tag grammar.

    The target language is a bijective rename of the source with rotated,
    lightly noised embeddings and local word-order perturbation among
    O-tagged tokens. Target train labels exist only for bookkeeping and are
    stripped before use.
    """

    def __init__(self, seed, n_train=800, n_dev=200, n_test=200, dim=16,
                 perturb=0.3, noise=0.02, cluster_spread=1.2):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.dim = dim
        self.perturb = perturb

        def words(prefix, count):
            return [f"{prefix}{i}" for i in range(count)]

        self.per_first = [w.capitalize() for w in words("pf", 25)]
        self.per_last = [w.capitalize() for w in words("pl", 25)]
        self.locs = [w.capitalize() for w in words("loc", 20)]
        self.orgs = [w.capitalize() for w in words("org", 20)]
        self.nouns = words("n", 60)
        self.verbs = words("v", 25)
        self.funcs = words("f", 12)
        vocab = (
            self.per_first + self.per_last + self.locs + self.orgs
            + self.nouns + self.verbs + self.funcs
        )
        # class-clustered vectors so word identity carries tag signal; the
        # spread keeps the cloud rich enough for adversarial alignment
        centers = {}
        for cls in ("PERF", "PERL", "LOC", "ORG", "N", "V", "F"):
            centers[cls] = rng.normal(size=dim)
        rows = []
        for w in vocab:
            cls = (
                "PERF" if w in self.per_first else
                "PERL" if w in self.per_last else
                "LOC" if w in self.locs else
                "ORG" if w in self.orgs else
                "N" if w in self.nouns else
                "V" if w in self.verbs else "F"
            )
            rows.append(centers[cls] + cluster_spread * rng.normal(size=dim))
        x = np.array(rows)
        omega = random_orthogonal(rng, dim)
        y = x @ omega + noise * rng.normal(size=x.shape)
        self.omega = omega
        self.src_emb = EmbeddingTable(vocab, normalize(x), "src")
        tgt_vocab = [cipher_word(w) for w in vocab]
        self.tgt_emb = EmbeddingTable(tgt_vocab, normalize(y), "tgt")

        self.src_train = self._dataset(rng, n_train, "src", "train")
        self.src_dev = self._dataset(rng, n_dev, "src", "dev")
        self.src_test = self._dataset(rng, n_test, "src", "test")
        self.tgt_train = self._dataset(rng, n_train, "tgt", "train")
        self.tgt_dev = self._dataset(rng, n_dev, "tgt", "dev")
        self.tgt_test = self._dataset(rng, n_test, "tgt", "test")
        self.tgt_train_unlabeled = Dataset(
            [TaggedSentence(list(s.tokens)) for s in self.tgt_train],
            role="train", language="tgt", scheme=IOB2,
        )

    def _pick(self, rng, pool):
        return pool[int(rng.integers(0, len(pool)))]

    def _sentence(self, rng):
        tokens, tags = [], []

        def add(words, labels):
            tokens.extend(words)
            tags.extend(labels)

        def noun_phrase():
            roll = rng.random()
            if roll < 0.30:
                first = self._pick(rng, self.per_first)
                if rng.random() < 0.6:
                    add([first, self._pick(rng, self.per_last)],
                        ["B-PER", "I-PER"])
                else:
                    add([first], ["B-PER"])
            elif roll < 0.50:
                add([self._pick(rng, self.locs)], ["B-LOC"])
            elif roll < 0.65:
                add([self._pick(rng, self.orgs)], ["B-ORG"])
            else:
                add([self._pick(rng, self.nouns)], ["O"])

        for _ in range(int(rng.integers(0, 3))):
            add([self._pick(rng, self.funcs)], ["O"])
        noun_phrase()
        add([self._pick(rng, self.verbs)], ["O"])
        if rng.random() < 0.5:
            add([self._pick(rng, self.funcs)], ["O"])
        noun_phrase()
        for _ in range(int(rng.integers(0, 3))):
            add([self._pick(rng, self.nouns if rng.random() < 0.5 else self.funcs)],
                ["O"])
        return tokens, tags

    def _dataset(self, rng, count, language, role):
        sentences = []
        for _ in range(count):
            tokens, tags = self._sentence(rng)
            if language == "tgt":
                tokens = [cipher_word(t) for t in tokens]
                tokens, tags = self._perturb_order(rng, tokens, tags)
            sentences.append(TaggedSentence(tokens, tags))
        return Dataset(sentences, role=role, language=language, scheme=IOB2)

    def _perturb_order(self, rng, tokens, tags):
        tokens, tags = list(tokens), list(tags)
        for i in range(len(tokens) - 1):
            if tags[i] == "O" and tags[i + 1] == "O" and rng.random() < self.perturb:
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        return tokens, tags
