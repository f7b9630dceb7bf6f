"""Seeded input generator for the benchmark workloads.

Everything the program reads is written here from one seed: bilingual CoNLL
files, 300-d `.vec` tables in frequency order, and a ground-truth mapper.
The target language is a letter cipher of the source language (capitalization
kept, numerals spelled identically in both), and its vectors are the source
vectors under a known random rotation plus a little noise.

Sentence lengths follow one fixed, CoNLL-like sequence (median about 14,
long tail past 60), and word lengths are fixed by frequency rank; neither
depends on the seed, so every seed asks the program for the same amount of
work. The seed changes the letters, entities, vectors and rotation.
"""

import math

import numpy as np

from spans import percentile

DIM = 300
TYPES = ("PER", "LOC", "ORG", "MISC")
TYPE_PROBS = (0.3, 0.3, 0.25, 0.15)
ENTITY_LENGTH_PROBS = (0.5, 0.35, 0.15)  # entity spans of 1, 2, 3 tokens
ENTITY_RATE = 0.2  # chance that a position starts an entity
NUMERAL_EVERY = 25  # every 25th O word is a numeral, spelled identically
BATCH = 16
# entity words have a role in their span: single, begin, inside, end (like
# first and last names), so a word's class tells its IOBES tag
ROLES = ("S", "B", "I", "E")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_CIPHER = str.maketrans(_LETTERS, "qwertyuiopasdfghjklzxcvbnm")
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
# syllables of the word at each frequency rank, cycling; the character
# encoder's work grows with word length, so it is fixed by rank, not seed
_SYLLABLES_BY_RANK = (2, 3, 3, 4)
# sentence lengths: log-normal with this median and sigma, clipped
LENGTH_MEDIAN, LENGTH_SIGMA, LENGTH_MIN, LENGTH_MAX = 14.0, 0.6, 2, 124
# distance of each word class's vector center, in units of the per-word noise
CLUSTER = 3.0


def stratified_lengths(n):
    """n sentence lengths from a log-normal at evenly spaced quantiles, in a
    fixed shuffled order (the same for every seed)."""
    from statistics import NormalDist

    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    lengths = [min(LENGTH_MAX, max(LENGTH_MIN, int(round(
        LENGTH_MEDIAN * math.exp(LENGTH_SIGMA * v))))) for v in z]
    order = np.random.default_rng(12345).permutation(n)
    return [lengths[i] for i in order]


def cipher(word):
    """Target spelling: a letter substitution that keeps capitalization;
    numerals are identical in both languages."""
    if word.isdigit():
        return word
    out = word.lower().translate(_CIPHER) + "o"
    return out.capitalize() if word[0].isupper() else out


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def word_strings(rng, count, taken, capitalize=False):
    """count new distinct words; the word of rank r has
    2 * _SYLLABLES_BY_RANK[r % 4] letters whatever the seed."""
    words = []
    for rank in range(count):
        n_syl = _SYLLABLES_BY_RANK[rank % len(_SYLLABLES_BY_RANK)]
        while True:
            w = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                        + _VOWELS[rng.integers(len(_VOWELS))]
                        for _ in range(n_syl))
            if w not in taken:  # taken holds lowercase spellings
                break
        taken.add(w)
        words.append(w.capitalize() if capitalize else w)
    return words


class Lexicon:
    """Source words by class, each class in frequency (rank) order, with
    class-clustered vectors so that word identity carries tag signal."""

    def __init__(self, rng, n_o, n_ent, dim=DIM):
        taken = set()
        o_words = word_strings(rng, n_o, taken)
        for rank in range(0, n_o, NUMERAL_EVERY):
            o_words[rank] = str(1000 + rank)
        self.pools = {"O": o_words}
        for typ in TYPES:
            for role in ROLES:
                self.pools[f"{typ}.{role}"] = word_strings(
                    rng, n_ent, taken, capitalize=True)
        centers = {c: rng.normal(size=dim) / math.sqrt(dim)
                   for c in self.pools}
        self.vectors = {}
        for cls, words in self.pools.items():
            noise = rng.normal(size=(len(words), dim)) / math.sqrt(dim)
            self.vectors[cls] = CLUSTER * centers[cls] + noise

    def table(self, table_o, table_ent):
        """Frequency-ordered (words, vectors) of the table ranks: the top
        table_o O words and the top table_ent words of each entity type,
        interleaved by rank so that frequent words come first."""
        words, rows = [], []
        depth = max(table_o, table_ent)
        for rank in range(depth):
            for cls, words_c in self.pools.items():
                cap = table_o if cls == "O" else table_ent
                if rank < cap:
                    words.append(words_c[rank])
                    rows.append(self.vectors[cls][rank])
        return words, np.array(rows)


def _zipf_sampler(rng, n, s):
    p = 1.0 / np.arange(1, n + 1) ** s
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0

    def draw():
        return np.searchsorted(cdf, rng.random(), side="right")

    return draw


def _span_roles(span):
    return ("S",) if span == 1 else ("B",) + ("I",) * (span - 2) + ("E",)


def make_sentences(rng, lexicon, lengths, o_range, ent_range, zipf_s):
    """Tagged source sentences (IOB2) of the given lengths; words are drawn
    with Zipf exponent zipf_s (0 is flat) from the first o_range O words and
    ent_range words per entity pool."""
    draw_o = _zipf_sampler(rng, o_range, zipf_s)
    draw_e = _zipf_sampler(rng, ent_range, zipf_s)
    sentences = []
    for length in lengths:
        tokens, tags = [], []
        while len(tokens) < length:
            if rng.random() < ENTITY_RATE:
                typ = TYPES[rng.choice(len(TYPES), p=TYPE_PROBS)]
                span = 1 + int(rng.choice(3, p=ENTITY_LENGTH_PROBS))
                span = min(span, length - len(tokens))
                for role in _span_roles(span):
                    tokens.append(lexicon.pools[f"{typ}.{role}"][draw_e()])
                    tags.append(("I-" if role in "IE" else "B-") + typ)
                if len(tokens) < length:  # spans never touch
                    tokens.append(lexicon.pools["O"][draw_o()])
                    tags.append("O")
            else:
                tokens.append(lexicon.pools["O"][draw_o()])
                tags.append("O")
        sentences.append((tokens, tags))
    return sentences


def all_tags_sentence(lexicon):
    """One sentence holding every IOBES tag: an entity of each type with
    one, two and three tokens, separated by O words."""
    tokens, tags = [], []
    o_words = lexicon.pools["O"]
    for typ in TYPES:
        for span in (1, 2, 3):
            tokens.append(o_words[len(tokens) % 7])
            tags.append("O")
            for role in _span_roles(span):
                tokens.append(lexicon.pools[f"{typ}.{role}"][0])
                tags.append(("I-" if role in "IE" else "B-") + typ)
    return tokens, tags


def to_target(sentences):
    return [([cipher(t) for t in toks], list(tags)) for toks, tags in sentences]


def write_conll(path, sentences, with_tags=True):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tokens, tags in sentences:
            if with_tags:
                fh.writelines(f"{t} {g}\n" for t, g in zip(tokens, tags))
            else:
                fh.writelines(f"{t}\n" for t in tokens)
            fh.write("\n")


def read_conll(path):
    """(tokens, tags-or-None) per sentence of a space-separated CoNLL file."""
    sentences, tokens, tags = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cols = line.split()
            if not cols:
                if tokens:
                    sentences.append((tokens, tags if len(tags) else None))
                tokens, tags = [], []
                continue
            tokens.append(cols[0])
            if len(cols) > 1:
                tags.append(cols[-1])
    if tokens:
        sentences.append((tokens, tags if len(tags) else None))
    return sentences


def format_rows(vectors):
    """Rows as space-separated '%.6f' text, one bytes line per row, built
    with array arithmetic (every entry must lie in (-10, 10))."""
    x = np.asarray(vectors, dtype=np.float64)
    q = np.rint(np.abs(x) * 1e6).astype(np.int64)
    if (q >= 10**7).any():
        raise ValueError("vector entries must lie in (-10, 10)")
    n, d = x.shape
    cells = np.empty((n, d, 10), dtype=np.uint8)
    cells[:, :, 0] = ord(" ")
    cells[:, :, 1] = ord("-")
    cells[:, :, 2] = ord("0") + q // 10**6
    cells[:, :, 3] = ord(".")
    frac = q % 10**6
    for pos in range(6):
        cells[:, :, 9 - pos] = ord("0") + frac % 10
        frac //= 10
    keep = np.ones((n, d, 10), dtype=bool)
    keep[:, :, 1] = (x < 0) & (q > 0)
    flat = np.concatenate(
        [cells.reshape(n, -1), np.full((n, 1), ord("\n"), np.uint8)], axis=1)
    mask = np.concatenate([keep.reshape(n, -1), np.ones((n, 1), bool)], axis=1)
    return flat[mask].tobytes().split(b"\n")[:n]


def write_vec(path, words, vectors):
    """fastText text format, rows in the given (frequency) order."""
    rows = format_rows(vectors)
    with open(path, "wb") as fh:
        fh.write(f"{len(words)} {np.shape(vectors)[1]}\n".encode())
        for word, row in zip(words, rows):
            fh.write(word.encode("utf-8") + row + b"\n")


def rotate(rng, vectors, noise):
    """(vectors @ omega + noise, omega) for a random rotation omega."""
    omega = random_orthogonal(rng, vectors.shape[1])
    moved = vectors @ omega
    if noise:
        moved = moved + noise * rng.normal(size=moved.shape) / math.sqrt(
            vectors.shape[1])
    return moved, omega


def save_rotation_mapper(path, omega):
    """Ground-truth s_to_t mapper file: W with src_row @ W.T == src_row @ omega.
    Written with the program's public serializer so it is a valid artifact."""
    from zrxner.align import S_TO_T, LinearMapper
    from zrxner.persist import save_mapper

    save_mapper(path, LinearMapper(omega.T.copy(), S_TO_T),
                {"origin": "generated ground truth"})


# ---------------------------------------------------------------------------
# input properties


def properties(sentences, table_words=None, batch_seed=0):
    """Exact counts of the input properties the program's speed depends on.

    Batches are random groups of BATCH sentences (a permutation from
    batch_seed). A token is "repeated" when the same string occurs earlier in
    its batch; padding is what a length-padded batch would add.
    """
    lengths = sorted(len(toks) for toks, _ in sentences)
    n_tokens = sum(lengths)
    order = np.random.default_rng(batch_seed).permutation(len(sentences))
    repeated = 0
    padded_cells = 0
    pad_cells = 0
    for lo in range(0, len(order), BATCH):
        group = [sentences[i][0] for i in order[lo : lo + BATCH]]
        seen = set()
        for toks in group:
            for t in toks:
                if t in seen:
                    repeated += 1
                else:
                    seen.add(t)
        longest = max(len(toks) for toks in group)
        padded_cells += longest * len(group)
        pad_cells += longest * len(group) - sum(len(toks) for toks in group)
    props = {
        "sentences": len(sentences),
        "tokens": n_tokens,
        "length_p50": percentile(lengths, 50) if lengths else 0,
        "length_p90": percentile(lengths, 90) if lengths else 0,
        "length_max": lengths[-1] if lengths else 0,
        "batch_repeated_tokens": repeated,
        "batch_repeated_share": repeated / n_tokens if n_tokens else 0.0,
        "batch_padding_cells": pad_cells,
        "batch_padding_share": pad_cells / padded_cells if padded_cells else 0.0,
    }
    if table_words is not None:
        exact = set(table_words)
        lower = {w.lower() for w in table_words}
        oov = sum(1 for toks, _ in sentences for t in toks
                  if t not in exact and t.lower() not in lower)
        props["out_of_table_tokens"] = oov
        props["out_of_table_share"] = oov / n_tokens if n_tokens else 0.0
    return props
