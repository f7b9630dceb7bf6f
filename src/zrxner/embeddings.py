"""Pretrained word-vector tables: fastText-style .vec text I/O, row lookup
with a lowercase fallback, unit normalization, and linear mapping.

Tables are frozen after load; alignment moves vectors between language
spaces through a d x d mapper, never by retraining the vectors themselves.
"""

import numpy as np

from .corpus import iter_lines
from .errors import ParseError, UsageError

DEFAULT_LOAD_LIMIT = 200000
# Rows handled at once when loading, checking and normalizing a table; this
# bounds the scratch memory of each beside the table itself.
BLOCK_ROWS = 1024
# A loading table grows by at most this many bytes at a time and is trimmed
# to the rows read at the end, so a header that overstates its row count
# costs at most this much beyond the table, and only while loading.
GROW_BYTES = 64 << 20
# NumPy's C parser takes "\r" for a line end and skips "\x1c"-"\x1f" around
# a number, where float() does neither; other ASCII it reads as float() does.
_C_PARSER_DIFFERS = "\r\x1c\x1d\x1e\x1f"


def check_table(words, shape, finite):
    """Raise UsageError where words and rows of shape cannot form a table;
    finite() tells whether every row is finite, and is asked last."""
    if len(shape) != 2 or len(words) != shape[0]:
        raise UsageError("words and vectors disagree")
    if len(set(words)) != len(words):
        raise UsageError("duplicate words in embedding table")
    if not finite():
        raise UsageError("non-finite vector entries")


class EmbeddingTable:
    """Frequency-ordered vocabulary with one row per word. Rows are stored
    as float32 when given as float32 and as float64 otherwise. Every table
    a command holds is float32: a .vec file loads with unit=True, a
    checkpoint stores float32, and apply_mapper keeps its input's dtype.
    Tables built from float64 arrays in the library stay float64. Every
    reader widens the float32 rows it works on to float64, which is exact,
    and never the whole table."""

    def __init__(self, words, vectors, language=""):
        vectors = np.asarray(vectors)
        if vectors.dtype != np.float32:
            vectors = np.asarray(vectors, dtype=np.float64)
        check_table(words, vectors.shape, lambda: all(
            np.isfinite(vectors[lo:lo + BLOCK_ROWS]).all()
            for lo in range(0, len(vectors), BLOCK_ROWS)))
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
        """Row of the exact match, else of the first word with the same
        lowercase form, else -1; `select_rows` follows the same rule."""
        i = self._index.get(word)
        return self._lower.get(word.lower(), -1) if i is None else i


def select_rows(words, tokens):
    """The sorted indices of the rows of a table of words that `row` reads
    for tokens: each token's exact word, else the first word with the same
    lowercase form. A table of these rows alone, in this order, gives each
    token the vector that the whole table gives it, or -1 where that has
    none. One pass over the words, with no map over the whole vocabulary."""
    tokens = set(tokens)
    lowered = {token.lower() for token in tokens}
    exact, found, first = [], set(), {}
    for i, word in enumerate(words):
        if word in tokens:
            exact.append(i)
            found.add(word)
        low = word.lower()
        if low in lowered:
            lowered.remove(low)  # the first word of this form takes it
            first[low] = i
    fallback = {first[t.lower()] for t in tokens - found if t.lower() in first}
    return sorted(fallback.union(exact))


def _fields(line):
    """The fields of a .vec line split at single spaces, less the empty
    field after fastText's trailing space."""
    fields = line.split(" ")
    return fields[:-1] if fields[-1] == "" else fields


def _check_count(fields, dim, lineno):
    if len(fields) - 1 != dim:
        raise ParseError(f"{len(fields) - 1} values for dimension {dim}",
                         line=lineno)


def _rows_by_float(lines, dim):
    """The value rows of (line number, line) pairs, each value read with
    float(); the first line with a wrong value count or a value float()
    cannot read raises ParseError."""
    rows = np.empty((len(lines), max(dim, 0)))  # d < 0: every count is wrong
    for i, (lineno, line) in enumerate(lines):
        fields = _fields(line)
        _check_count(fields, dim, lineno)
        try:
            rows[i] = [float(x) for x in fields[1:]]
        except ValueError:
            raise ParseError("non-numeric vector entry", line=lineno)
    return rows


def _rows_by_numpy(values, dim):
    """The rows of the value texts through NumPy's C parser, or None where
    it might not read them as _rows_by_float would: non-ASCII text, a
    character the two treat differently, an empty text (a skipped line to
    the parser), a value it cannot read, or any row without dim values."""
    text = "\n".join(values)
    if (not text.isascii() or any(c in text for c in _C_PARSER_DIFFERS)
            or not all(values)):
        return None
    try:
        rows = np.loadtxt(values, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(values), dim) else None


class _GrowingRows:
    """One array of rows of dtype, allocated in steps of at most GROW_BYTES
    and never beyond `cap` rows; resized in place."""

    def __init__(self, cap, dim, dtype):
        self.cap, self.dim, self.dtype = cap, dim, np.dtype(dtype)
        self.step = max(1, GROW_BYTES // (self.dtype.itemsize * max(dim, 1)))
        self.array = None
        self.count = 0

    def append(self, rows):
        end = self.count + len(rows)
        if self.array is None:
            self.array = np.empty((min(self.cap, max(end, self.step)), self.dim),
                                  self.dtype)
        elif end > len(self.array):
            size = min(self.cap, max(end, len(self.array) + self.step))
            self.array.resize((size, self.dim), refcheck=False)
        self.array[self.count:end] = rows
        self.count = end

    def finish(self):
        if self.array is None:
            return np.zeros((0, self.dim), self.dtype)
        if self.count < len(self.array):
            self.array.resize((self.count, self.dim), refcheck=False)
        return self.array


def load_vec_text(stream, limit=DEFAULT_LOAD_LIMIT, language="", unit=False):
    """Read 'n d' header then 'word v1 .. vd' rows, most frequent first.

    Loads the first min(n, limit) entries in file order; duplicate words keep
    their first occurrence. A row whose value count differs from d raises
    ParseError with the line number, as does the first value that float()
    cannot read; the first error in file order is the one raised.

    Values are read exactly as float() reads them. Kept rows are parsed in
    chunks of BLOCK_ROWS by NumPy's C parser, straight into one array of at
    most min(n, limit) rows; a chunk that parser might read differently, or
    that holds an error, is read again one line and one float() at a time.
    Loading holds the table plus about one chunk.

    With unit=True each chunk is normalized in float64 and rounded once into
    a float32 table, the form in which every command holds a table; a chunk
    that holds a non-finite value is stored as read, for the table's check
    to refuse.
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
    seen = set()
    rows = _GrowingRows(cap, dim, np.float32 if unit else np.float64)
    chunk, values = [], []  # kept lines not parsed yet, and their value text

    def flush():
        # parses the pending chunk; its first error precedes anything later
        if chunk:
            parsed = _rows_by_numpy(values, dim)
            if parsed is None:
                parsed = _rows_by_float(chunk, dim)
            if unit and np.isfinite(parsed).all():
                normalize(parsed, out=parsed)
            rows.append(parsed)
            chunk.clear()
            values.clear()

    try:
        for lineno, line in enumerate(lines, start=2):
            if len(words) >= cap:
                break
            if line == "" or line == " ":  # no field, or one empty field
                continue
            word, _, rest = line.partition(" ")
            if word in seen:
                fields = _fields(line)
                if len(fields) - 1 != dim:
                    flush()
                    _check_count(fields, dim, lineno)
                continue
            seen.add(word)
            words.append(word)
            chunk.append((lineno, line))
            values.append(rest[:-1] if rest.endswith(" ") else rest)
            if len(chunk) == BLOCK_ROWS:
                flush()
    except UnicodeDecodeError:
        flush()  # the pending lines come before the undecodable one
        raise
    flush()
    return EmbeddingTable(words, rows.finish(), language=language)


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


def normalize(rows, out=None):
    """rows with every nonzero row scaled to unit length in float64; zero
    rows stay zero. Works BLOCK_ROWS rows at a time, each block widened to
    float64, so out=rows normalizes in place, and float32 rows give a new
    float64 array, with scratch for one block; a row's norm does not depend
    on the blocks."""
    rows = np.asarray(rows)
    if out is None:
        out = np.empty(rows.shape)
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = np.asarray(rows[lo:lo + BLOCK_ROWS], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        np.divide(block, norms, out=out[lo:lo + BLOCK_ROWS])
    return out


def mapped_rows(rows, w, dtype=np.float64):
    """W y for every row y of rows, computed in float64 and stored in
    dtype. Float64 rows are mapped by one product; other rows are widened
    and mapped BLOCK_ROWS at a time, with scratch for one block. (A product
    taken in blocks can round a row otherwise than one product does, at
    some shapes, so rows that need no widening keep the one product.)"""
    if rows.dtype == np.float64:
        return (rows @ w.T).astype(dtype, copy=False)
    out = np.empty((len(rows), w.shape[0]), dtype)
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = np.asarray(rows[lo:lo + BLOCK_ROWS], dtype=np.float64)
        np.matmul(block, w.T, out=out[lo:lo + BLOCK_ROWS])
    return out


def apply_mapper(table, w):
    """Map every row y to W y; vocabulary order and the storage dtype of
    the rows are preserved."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape != (table.dim, table.dim):
        raise UsageError(
            f"mapper shape {w.shape} does not match dimension {table.dim}"
        )
    return EmbeddingTable(table.words,
                          mapped_rows(table.vectors, w, table.vectors.dtype),
                          table.language)
