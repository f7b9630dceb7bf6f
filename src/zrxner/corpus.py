"""CoNLL-format corpora: parsing, tag-scheme conversion, entity extraction,
the character vocabulary, and entity-level precision/recall/F1.

Tag schemes follow the usual chunking conventions: IOB1 (I- opens a chunk,
B- only splits adjacent same-type chunks), IOB2 (every chunk opens with B-),
IOBES (adds E- for ends and S- for singletons). Invalid continuations are
repaired as new span starts, conlleval-style, and the repair count is
surfaced because pseudo-labeled data routinely contains them. One step rule,
`step_repairs`, states the schemes: the entity scanner and the tagger's
constrained-decoding mask both read it.
"""

import io
from collections import Counter
from dataclasses import dataclass, field

from .errors import ParseError, UsageError

IOB1 = "IOB1"
IOB2 = "IOB2"
IOBES = "IOBES"
SCHEMES = (IOB1, IOB2, IOBES)

_SCHEME_PREFIXES = {IOB1: tuple("BI"), IOB2: tuple("BI"), IOBES: tuple("BIES")}

DOCSTART = "-DOCSTART-"
PAD_CHAR = "<pad>"
UNK_CHAR = "<unk>"


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int  # inclusive
    type: str


@dataclass
class TaggedSentence:
    tokens: list
    tags: list = None

    def __post_init__(self):
        if not self.tokens:
            raise UsageError("empty sentence")
        if self.tags is not None and len(self.tags) != len(self.tokens):
            raise UsageError(
                f"{len(self.tags)} tags for {len(self.tokens)} tokens"
            )

    def __len__(self):
        return len(self.tokens)


@dataclass
class Dataset:
    sentences: list
    role: str = "train"  # train | dev | test
    language: str = ""
    scheme: str = IOB2

    @property
    def size(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise UsageError(f"unknown tag scheme {scheme!r}; expected one of {SCHEMES}")


def split_label(tag, scheme):
    """'B-PER' -> ('B', 'PER'); 'O' -> ('O', None). Raises on malformed labels."""
    if tag == "O":
        return "O", None
    if "-" not in tag:
        raise UsageError(f"label {tag!r} is not parseable as prefix-type")
    prefix, typ = tag.split("-", 1)
    if prefix not in _SCHEME_PREFIXES[scheme] or not typ:
        raise UsageError(f"label {tag!r} is invalid under scheme {scheme}")
    return prefix, typ


def step_repairs(prev, cur, scheme):
    """(boundary, repairs) of the step between two consecutive split labels:
    whether a chunk ends before cur or starts at it, and how many scheme
    rules the step breaks (an I/E opening a chunk under IOB2/IOBES, a B
    under IOB1 that does not split a same-type chunk, an IOBES chunk closed
    without E or S). Sentence start and end read as ("O", None)."""
    (p1, t1), (p2, t2) = prev, cur
    if p1 == p2 == "O" or (t1 == t2 and p1 in "BI" and p2 in "IE"):
        return False, 0  # outside, or the open chunk continues
    if scheme == IOBES:
        return True, (p1 in "BI") + (p2 in "IE")
    if scheme == IOB2:
        return True, int(p2 == "I")
    return True, int(p2 == "B" and (p1 == "O" or t1 != t2))


def scan_entities(tags, scheme):
    """Extract typed spans, repairing invalid continuations as new span starts.

    Returns (spans, repairs): a span closes and the next opens at each step
    `step_repairs` marks as a boundary, and repairs sums its counts over
    every step, the sentence's two ends included.
    """
    _check_scheme(scheme)
    spans = []
    repairs = 0
    start = 0
    prev = ("O", None)
    for i, tag in enumerate([*tags, "O"]):
        if tag == "O" and prev[0] == "O":
            continue  # outside: no boundary and no repair, prev unchanged
        cur = split_label(tag, scheme)
        boundary, broken = step_repairs(prev, cur, scheme)
        repairs += broken
        if boundary:
            if prev[0] != "O":
                spans.append(EntitySpan(start, i - 1, prev[1]))
            start = i
        prev = cur
    return spans, repairs


def _emit_spans(length, spans, scheme):
    tags = ["O"] * length
    prev_end = {}  # end index -> type, for IOB1 adjacency
    for span in sorted(spans, key=lambda s: s.start):
        n = span.end - span.start + 1
        if scheme == IOB2:
            tags[span.start] = f"B-{span.type}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{span.type}"
        elif scheme == IOBES:
            if n == 1:
                tags[span.start] = f"S-{span.type}"
            else:
                tags[span.start] = f"B-{span.type}"
                for i in range(span.start + 1, span.end):
                    tags[i] = f"I-{span.type}"
                tags[span.end] = f"E-{span.type}"
        else:  # IOB1: B- only when adjacent to a same-type chunk on the left
            first = "B" if prev_end.get(span.start - 1) == span.type else "I"
            tags[span.start] = f"{first}-{span.type}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{span.type}"
        prev_end[span.end] = span.type
    return tags


def convert_scheme(tags, from_scheme, to_scheme):
    """Re-encode a valid tag sequence; entity spans and types are preserved."""
    _check_scheme(from_scheme)
    _check_scheme(to_scheme)
    spans, _ = scan_entities(tags, from_scheme)
    return _emit_spans(len(tags), spans, to_scheme)


def iter_lines(stream):
    """Lines without their end, which is "\n" or "\r\n", for CoNLL and `.vec`
    alike; a str or bytes input splits the way a stream does, so a "\r" or a
    Unicode line separator inside a line stays in it."""
    if isinstance(stream, (str, bytes)):
        text = stream.decode("utf-8") if isinstance(stream, bytes) else stream
        stream = io.StringIO(text)
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        yield line[:-2] if line.endswith("\r\n") else line.rstrip("\n")


def _columns(line):
    """Columns split at ASCII spaces and tabs only, so a token may hold any
    other character, Unicode spaces and line separators included."""
    cols = line.replace("\t", " ").split(" ")
    return [col for col in cols if col] if "" in cols else cols


def read_conll(stream, token_col=0, tag_col=-1, language="", role="train",
               scheme=IOB2):
    """Parse CoNLL text into a Dataset.

    Lines end at "\n" or "\r\n"; columns are separated by ASCII spaces and
    tabs. Sentences are blank-line separated; -DOCSTART- blocks are dropped.
    tag_col=None loads unlabeled data; tag_col=-1 means the last column.
    Ragged rows (a missing requested column) raise ParseError with the
    1-based line number.
    """
    sentences = []
    tokens, tags = [], []

    def flush():
        nonlocal tokens, tags
        if tokens and tokens[0] != DOCSTART:
            sentences.append(
                TaggedSentence(tokens, tags if tag_col is not None else None)
            )
        tokens, tags = [], []

    for lineno, line in enumerate(iter_lines(stream), start=1):
        cols = _columns(line)
        if not cols:
            flush()
            continue
        if token_col >= len(cols):
            raise ParseError(f"missing token column {token_col}", line=lineno)
        tokens.append(cols[token_col])
        if tag_col is not None:
            if tag_col == -1:
                if len(cols) < 2:
                    raise ParseError("missing tag column", line=lineno)
                tags.append(cols[-1])
            else:
                if tag_col >= len(cols):
                    raise ParseError(f"missing tag column {tag_col}", line=lineno)
                tags.append(cols[tag_col])
    flush()
    return Dataset(sentences, role=role, language=language, scheme=scheme)


def write_conll(dataset, stream):
    """Inverse of read_conll: 'token tag' rows, blank line between sentences.

    A token or tag that would not read back as itself (empty, holding an
    ASCII space, tab or "\n", or ending its line with "\r") raises
    UsageError before anything is written.
    """
    lines = []
    for sent in dataset:
        for i, token in enumerate(sent.tokens):
            cols = [token] if sent.tags is None else [token, sent.tags[i]]
            line = " ".join(cols)
            if _columns(line) != cols or "\n" in line or line.endswith("\r"):
                raise UsageError(f"{line!r} does not read back as the CoNLL "
                                 f"columns {cols!r}")
            lines.append(line + "\n")
        lines.append("\n")
    stream.write("".join(lines))


@dataclass
class Prf:
    correct: int = 0
    gold: int = 0
    pred: int = 0

    @property
    def precision(self):
        return self.correct / self.pred if self.pred else 0.0

    @property
    def recall(self):
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class F1Report:
    overall: Prf = field(default_factory=Prf)
    per_type: dict = field(default_factory=dict)
    gold_repairs: int = 0
    pred_repairs: int = 0


def entity_f1(gold, pred_tags):
    """Exact span-and-type matching (conlleval semantics), overall and per type.

    gold is a labeled Dataset; pred_tags is one tag sequence per sentence,
    both read in gold.scheme.
    """
    scheme = gold.scheme
    if len(pred_tags) != len(gold.sentences):
        raise UsageError(
            f"{len(pred_tags)} predictions for {len(gold.sentences)} sentences"
        )
    report = F1Report()
    for sent, pred in zip(gold.sentences, pred_tags):
        if sent.tags is None:
            raise UsageError("gold dataset is unlabeled")
        if len(pred) != len(sent):
            raise UsageError(
                f"length mismatch: {len(pred)} predicted tags for "
                f"{len(sent)}-token sentence"
            )
        gspans, grep = scan_entities(sent.tags, scheme)
        pspans, prep = scan_entities(pred, scheme)
        report.gold_repairs += grep
        report.pred_repairs += prep
        gset = set(gspans)
        for span in gspans:
            stats = report.per_type.setdefault(span.type, Prf())
            stats.gold += 1
            report.overall.gold += 1
        for span in pspans:
            stats = report.per_type.setdefault(span.type, Prf())
            stats.pred += 1
            report.overall.pred += 1
            if span in gset:
                stats.correct += 1
                report.overall.correct += 1
    return report


def build_char_vocab(datasets):
    """One character index shared by all languages: every corpus character,
    most frequent first (ties broken lexicographically), after the reserved
    <pad>=0 and <unk>=1."""
    if not datasets:
        raise UsageError("at least one dataset is required")
    counts = Counter()
    for ds in datasets:
        for sent in ds:
            for token in sent.tokens:
                counts.update(token)
    char_index = {PAD_CHAR: 0, UNK_CHAR: 1}
    for ch, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        char_index[ch] = len(char_index)
    return char_index


def correct_tag_ratio_by_length(gold, pred_tags, buckets):
    """Per length-bucket ratio of correctly tagged tokens (Figure-3 style curve).

    buckets is the bucket width: (1, buckets), (buckets + 1, 2 * buckets), ...
    inclusive. Buckets containing no sentences are absent from the result.
    """
    if len(pred_tags) != len(gold.sentences):
        raise UsageError("gold and predictions are not aligned")
    if buckets <= 0:
        raise UsageError("bucket width must be positive")
    totals = {}  # (lo, hi) -> [correct, total]
    for sent, pred in zip(gold.sentences, pred_tags):
        if len(pred) != len(sent):
            raise UsageError("length mismatch in correct_tag_ratio_by_length")
        lo = (len(sent) - 1) // buckets * buckets + 1
        tally = totals.setdefault((lo, lo + buckets - 1), [0, 0])
        tally[0] += sum(1 for g, p in zip(sent.tags, pred) if g == p)
        tally[1] += len(sent)
    return {r: c / t for r, (c, t) in sorted(totals.items())}
