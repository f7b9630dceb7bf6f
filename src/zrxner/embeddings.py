"""Pretrained word-vector tables: fastText-style .vec text I/O, row lookup
with a lowercase fallback, unit normalization, and linear mapping.

Tables are frozen after load; alignment moves vectors between language
spaces through a d x d mapper, never by retraining the vectors themselves.
"""

import numpy as np

from .corpus import iter_lines
from .errors import ParseError, UsageError

DEFAULT_LOAD_LIMIT = 200000


class EmbeddingTable:
    """Frequency-ordered vocabulary with one float64 row per word."""

    def __init__(self, words, vectors, language=""):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(words) != vectors.shape[0]:
            raise UsageError("words and vectors disagree")
        if len(set(words)) != len(words):
            raise UsageError("duplicate words in embedding table")
        if not np.isfinite(vectors).all():
            raise UsageError("non-finite vector entries")
        self.words = list(words)
        self.vectors = vectors
        self.language = language
        self._index = {w: i for i, w in enumerate(self.words)}
        self._lower = {}
        for i, w in enumerate(self.words):
            self._lower.setdefault(w.lower(), i)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self._index

    def index(self, word):
        return self._index.get(word)

    def row(self, word):
        """Row of the exact match, else of the lowercase match, else -1."""
        i = self._index.get(word)
        return self._lower.get(word.lower(), -1) if i is None else i


def load_vec_text(stream, limit=DEFAULT_LOAD_LIMIT, language=""):
    """Read 'n d' header then 'word v1 .. vd' rows, most frequent first.

    Loads the first min(n, limit) entries in file order; duplicate words keep
    their first occurrence. A row whose value count differs from d raises
    ParseError with the line number.
    """
    lines = iter_lines(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("missing header", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"bad header {header!r}, expected 'n d'", line=1)
    try:
        n, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad header {header!r}", line=1)
    cap = n if limit is None else min(n, limit)
    words = []
    rows = []
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        if len(words) >= cap:
            break
        fields = line.split(" ")
        if fields and fields[-1] == "":
            fields = fields[:-1]  # tolerate fastText's trailing space
        if not fields or fields == [""]:
            continue
        word = fields[0]
        if len(fields) - 1 != dim:
            raise ParseError(
                f"{len(fields) - 1} values for dimension {dim}", line=lineno
            )
        if word in seen:
            continue
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric vector entry", line=lineno)
        seen.add(word)
        words.append(word)
        rows.append(vec)
    vectors = np.vstack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(words, vectors, language=language)


def write_vec_text(table, stream, fmt="%.6f"):
    """Inverse of load_vec_text (floats rounded to the given format). A word
    holding a space or "\n" raises UsageError before anything is written."""
    for word in table.words:
        if " " in word or "\n" in word:
            raise UsageError(f"word {word!r} holds a space or line break, "
                             "which a .vec row cannot store")
    stream.write(f"{len(table)} {table.dim}\n")
    for word, row in zip(table.words, table.vectors):
        stream.write(word + " " + " ".join(fmt % x for x in row) + "\n")


def normalize(table):
    """New table with every nonzero row scaled to unit length."""
    norms = np.linalg.norm(table.vectors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0  # zero rows untouched
    return EmbeddingTable(table.words, table.vectors / norms, table.language)


def apply_mapper(table, w):
    """Map every row y to W y; vocabulary order is preserved."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape != (table.dim, table.dim):
        raise UsageError(
            f"mapper shape {w.shape} does not match dimension {table.dim}"
        )
    return EmbeddingTable(table.words, table.vectors @ w.T, table.language)
