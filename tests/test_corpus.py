import io

import numpy as np
import pytest

from zrxner.corpus import (
    IOB1,
    IOB2,
    IOBES,
    Dataset,
    EntitySpan,
    TaggedSentence,
    build_char_vocab,
    convert_scheme,
    correct_tag_ratio_by_length,
    entity_f1,
    read_conll,
    scan_entities,
    write_conll,
)
from zrxner.errors import ParseError, UsageError

from oracles import emit_iobes, iobes_spans_naive, random_valid_spans

TWO_SENTENCES = """\
-DOCSTART- -X- -X- O

John B-PER
Smith I-PER
visited O
Paris B-LOC

EU B-ORG
rejects O
it O
"""


def spans(pairs):
    return [EntitySpan(*p) for p in pairs]


def test_read_conll_basic():
    ds = read_conll(io.StringIO(TWO_SENTENCES))
    assert ds.size == 2
    assert ds.sentences[0].tokens == ["John", "Smith", "visited", "Paris"]
    assert ds.sentences[0].tags == ["B-PER", "I-PER", "O", "B-LOC"]
    assert ds.sentences[1].tokens == ["EU", "rejects", "it"]


def test_read_conll_empty_stream():
    assert read_conll(io.StringIO("")).size == 0


def test_read_conll_unlabeled():
    ds = read_conll(io.StringIO("a\nb\n\nc\n"), tag_col=None)
    assert ds.size == 2
    assert ds.sentences[0].tags is None


def test_read_conll_ragged_row_has_line_number():
    with pytest.raises(ParseError, match="line 2"):
        read_conll(io.StringIO("a B-PER\nb\n"))


def test_read_conll_explicit_columns():
    ds = read_conll(io.StringIO("x NNP B-LOC\n"), token_col=0, tag_col=2)
    assert ds.sentences[0].tags == ["B-LOC"]
    with pytest.raises(ParseError, match="line 1"):
        read_conll(io.StringIO("x NNP\n"), token_col=0, tag_col=2)


def test_conll_round_trip():
    ds = read_conll(io.StringIO(TWO_SENTENCES))
    out = io.StringIO()
    write_conll(ds, out)
    again = read_conll(io.StringIO(out.getvalue()))
    for a, b in zip(ds, again):
        assert a.tokens == b.tokens
        assert a.tags == b.tags


def test_conll_round_trip_keeps_unusual_characters():
    # no break between columns or lines but ASCII space, tab and "\n"
    rng = np.random.default_rng(5)
    alphabet = ["a", "Z", "\u00e9", "\u00a0", "\u2028", "\x85", "\x1c", "\r"]
    sentences = []
    for _ in range(40):
        tokens = ["".join(rng.choice(alphabet, size=rng.integers(1, 5)))
                  for _ in range(rng.integers(1, 7))]
        tags = list(rng.choice(["O", "B-PER", "I-PER"], size=len(tokens)))
        sentences.append(TaggedSentence(tokens, tags))
    text = "".join(t for s in sentences for t in s.tokens)
    assert all(ch in text for ch in alphabet)
    out = io.StringIO()
    write_conll(Dataset(sentences), out)
    for source in (out.getvalue(), out.getvalue().encode("utf-8"),
                   io.StringIO(out.getvalue())):
        again = read_conll(source)
        assert [s.tokens for s in again] == [s.tokens for s in sentences]
        assert [s.tags for s in again] == [s.tags for s in sentences]


@pytest.mark.parametrize("tokens, tags", [
    (["x y", "z"], ["B-PER", "O"]),  # would read back as "x", "z"
    (["x\ty"], None),
    (["x\ny"], ["O"]),
    ([""], ["O"]),
    (["x\r"], None),  # "x\r\n" is a CRLF line end
    (["x"], ["B-P ER"]),
])
def test_write_conll_refuses_what_would_not_read_back(tokens, tags):
    good = TaggedSentence(["a"], None if tags is None else ["O"])
    out = io.StringIO()
    with pytest.raises(UsageError, match="does not read back"):
        write_conll(Dataset([good, TaggedSentence(tokens, tags)]), out)
    assert out.getvalue() == ""  # nothing written, not even the good sentence


@pytest.mark.parametrize("seed", range(5))
def test_conll_write_read_loop(seed):
    # every dataset either reads back as written or is refused whole
    rng = np.random.default_rng(seed)
    alphabet = ["a", "\u00e9", "\u00a0", "\u2028", "\x85", "\r", " ", "\t"]
    weights = [0.24, 0.16, 0.16, 0.16, 0.12, 0.12, 0.02, 0.02]
    outcomes = set()
    for _ in range(20):
        labeled = bool(rng.integers(2))
        sentences = []
        for _ in range(rng.integers(1, 4)):
            tokens = ["".join(rng.choice(alphabet, size=rng.integers(1, 4),
                                         p=weights))
                      for _ in range(rng.integers(1, 5))]
            tags = (list(rng.choice(["O", "B-LOC"], size=len(tokens)))
                    if labeled else None)
            sentences.append(TaggedSentence(tokens, tags))
        tokens = [t for s in sentences for t in s.tokens]
        refused = any(" " in t or "\t" in t for t in tokens) or (
            not labeled and any(t.endswith("\r") for t in tokens))
        outcomes.add(refused)
        out = io.StringIO()
        if refused:
            with pytest.raises(UsageError):
                write_conll(Dataset(sentences), out)
            continue
        write_conll(Dataset(sentences), out)
        again = read_conll(out.getvalue(), tag_col=-1 if labeled else None)
        assert [s.tokens for s in again] == [s.tokens for s in sentences]
        assert [s.tags for s in again] == [s.tags for s in sentences]
    assert outcomes == {True, False}


@pytest.mark.parametrize("text, token", [
    ("a\u2028b O\n", "a\u2028b"), ("a\xa0b\tO\n", "a\xa0b"),
    ("a\rb  O\r\n", "a\rb"),
])
def test_read_conll_line_and_column_rule(text, token):
    for source in (text, io.StringIO(text)):
        (sent,) = read_conll(source).sentences
        assert sent.tokens == [token] and sent.tags == ["O"]


def test_convert_iob1_to_iob2():
    got = convert_scheme(["I-PER", "I-PER", "O", "I-LOC"], IOB1, IOB2)
    assert got == ["B-PER", "I-PER", "O", "B-LOC"]


def test_convert_iob2_to_iobes():
    got = convert_scheme(["B-PER", "I-PER", "O", "B-LOC"], IOB2, IOBES)
    assert got == ["B-PER", "E-PER", "O", "S-LOC"]


def test_convert_iob1_adjacent_chunks():
    # B- in IOB1 splits adjacent same-type chunks; conversion must keep both.
    tags = ["I-ORG", "B-ORG", "I-ORG"]
    assert scan_entities(tags, IOB1)[0] == spans([(0, 0, "ORG"), (1, 2, "ORG")])
    assert convert_scheme(tags, IOB1, IOB2) == ["B-ORG", "B-ORG", "I-ORG"]
    assert convert_scheme(["B-ORG", "B-ORG", "I-ORG"], IOB2, IOB1) == tags


def test_convert_round_trips():
    rng = np.random.default_rng(17)
    for _ in range(200):
        length = int(rng.integers(1, 12))
        iobes = emit_iobes(
            length, random_valid_spans(rng, length, ["PER", "LOC", "ORG"])
        )
        iob2 = convert_scheme(iobes, IOBES, IOB2)
        assert convert_scheme(iob2, IOB2, IOBES) == iobes
        iob1 = convert_scheme(iob2, IOB2, IOB1)
        assert convert_scheme(iob1, IOB1, IOB2) == iob2
        # composition invariant: IOB1 -> IOB2 -> IOBES preserves the spans
        assert scan_entities(
            convert_scheme(convert_scheme(iob1, IOB1, IOB2), IOB2, IOBES), IOBES
        )[0] == scan_entities(iob1, IOB1)[0]


def test_convert_rejects_malformed_label():
    with pytest.raises(UsageError):
        convert_scheme(["BPER"], IOB2, IOBES)
    with pytest.raises(UsageError):
        convert_scheme(["S-PER"], IOB2, IOBES)  # S- is not an IOB2 prefix


def test_extract_simple():
    got, _ = scan_entities(["B-PER", "I-PER", "O", "B-LOC"], IOB2)
    assert got == spans([(0, 1, "PER"), (3, 3, "LOC")])


def test_extract_all_o():
    assert scan_entities(["O", "O", "O"], IOB2) == ([], 0)


def test_extract_matches_naive_scanner():
    rng = np.random.default_rng(23)
    for _ in range(300):
        length = int(rng.integers(1, 15))
        tags = emit_iobes(
            length, random_valid_spans(rng, length, ["PER", "LOC", "ORG", "MISC"])
        )
        got = [(s.start, s.end, s.type) for s in scan_entities(tags, IOBES)[0]]
        assert got == iobes_spans_naive(tags)


def test_invalid_continuation_repaired_and_counted():
    got, repairs = scan_entities(["B-PER", "I-LOC", "O"], IOB2)
    assert got == spans([(0, 0, "PER"), (1, 1, "LOC")])
    assert repairs == 1
    got, repairs = scan_entities(["I-PER", "I-PER"], IOB2)
    assert got == spans([(0, 1, "PER")])
    assert repairs == 1
    got, repairs = scan_entities(["E-LOC", "O", "B-PER"], IOBES)
    assert got == spans([(0, 0, "LOC"), (2, 2, "PER")])
    assert repairs == 2  # E- start, unterminated B-


def test_entity_f1_half_type_mismatch():
    gold = Dataset(
        [TaggedSentence(list("abcd"), ["B-PER", "I-PER", "O", "B-LOC"])],
        scheme=IOB2,
    )
    report = entity_f1(gold, [["B-PER", "I-PER", "O", "B-ORG"]])
    assert report.overall.precision == pytest.approx(0.5)
    assert report.overall.recall == pytest.approx(0.5)
    assert report.overall.f1 == pytest.approx(0.5)
    assert report.per_type["PER"].f1 == pytest.approx(1.0)
    assert report.per_type["ORG"].precision == 0.0
    assert report.per_type["LOC"].recall == 0.0


def test_entity_f1_perfect():
    gold = Dataset(
        [TaggedSentence(list("abc"), ["B-PER", "O", "B-LOC"])], scheme=IOB2
    )
    report = entity_f1(gold, [["B-PER", "O", "B-LOC"]])
    assert report.overall.f1 == pytest.approx(1.0)


def test_entity_f1_boundary_miss_is_zero():
    gold = Dataset([TaggedSentence(list("ab"), ["B-PER", "I-PER"])], scheme=IOB2)
    report = entity_f1(gold, [["B-PER", "O"]])
    assert report.overall.precision == 0.0
    assert report.overall.recall == 0.0
    assert report.overall.f1 == 0.0


def test_entity_f1_symmetry():
    # precision(gold, pred) == recall(pred, gold)
    rng = np.random.default_rng(31)
    for _ in range(20):
        length = int(rng.integers(2, 12))
        a = emit_iobes(length, random_valid_spans(rng, length, ["PER", "LOC"]))
        b = emit_iobes(length, random_valid_spans(rng, length, ["PER", "LOC"]))
        ds_a = Dataset([TaggedSentence(["w"] * length, a)], scheme=IOBES)
        ds_b = Dataset([TaggedSentence(["w"] * length, b)], scheme=IOBES)
        assert entity_f1(ds_a, [b]).overall.precision == pytest.approx(
            entity_f1(ds_b, [a]).overall.recall
        )


def test_entity_f1_length_mismatch():
    gold = Dataset([TaggedSentence(["a", "b"], ["O", "O"])])
    with pytest.raises(UsageError):
        entity_f1(gold, [["O"]])


def test_build_vocab_shared_chars():
    en = Dataset([TaggedSentence(["abc"])], language="en")
    es = Dataset([TaggedSentence(["xyz"])], language="es")
    char_index = build_char_vocab([en, es])
    for ch in "abcxyz":
        assert ch in char_index
    assert char_index["<pad>"] == 0
    assert char_index["<unk>"] == 1


def test_build_vocab_char_coverage():
    ds = Dataset([TaggedSentence(["Ħêłlo", "wörld"])], language="x")
    char_index = build_char_vocab([ds])
    for sent in ds:
        for token in sent.tokens:
            for ch in token:
                assert ch in char_index or "<unk>" in char_index


def test_correct_tag_ratio_perfect():
    gold = Dataset(
        [
            TaggedSentence(["a"] * 3, ["O", "B-PER", "O"]),
            TaggedSentence(["a"] * 7, ["O"] * 7),
        ],
        scheme=IOB2,
    )
    curve = correct_tag_ratio_by_length(gold, [s.tags for s in gold], buckets=5)
    assert curve == {(1, 5): 1.0, (6, 10): 1.0}


def test_correct_tag_ratio_all_o_prediction():
    tags = ["B-PER", "O", "O", "B-LOC", "O"]
    gold = Dataset([TaggedSentence(["w"] * 5, tags)], scheme=IOB2)
    curve = correct_tag_ratio_by_length(gold, [["O"] * 5], buckets=10)
    assert curve[(1, 10)] == pytest.approx(3 / 5)


def test_correct_tag_ratio_empty_bucket_absent():
    # lengths 2 and 5 with width 2: the bucket (3, 4) between them is empty
    gold = Dataset([TaggedSentence(["w"] * 2, ["O", "O"]),
                    TaggedSentence(["w"] * 5, ["O"] * 5)], scheme=IOB2)
    curve = correct_tag_ratio_by_length(
        gold, [["O", "O"], ["O"] * 5], buckets=2
    )
    assert list(curve) == [(1, 2), (5, 6)]


def test_correct_tag_ratio_degrading_predictor():
    # Construct noise that flips tags on long sentences only, recount by hand.
    gold_sents = []
    preds = []
    for length in (2, 2, 8, 8):
        tags = ["O"] * length
        gold_sents.append(TaggedSentence(["w"] * length, tags))
        if length > 4:
            pred = ["B-PER"] + ["O"] * (length - 1)  # one wrong token
        else:
            pred = list(tags)
        preds.append(pred)
    gold = Dataset(gold_sents, scheme=IOB2)
    curve = correct_tag_ratio_by_length(gold, preds, buckets=4)
    assert curve[(1, 4)] == pytest.approx(1.0)
    assert curve[(5, 8)] == pytest.approx(14 / 16)
    assert curve[(5, 8)] < curve[(1, 4)]


def test_docstart_excluded():
    text = "-DOCSTART- O\n\na O\n\n-DOCSTART- O\n\nb O\n"
    ds = read_conll(io.StringIO(text))
    assert [s.tokens for s in ds] == [["a"], ["b"]]
