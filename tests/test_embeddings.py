import io
import itertools
import tracemalloc

import numpy as np
import pytest

import zrxner.embeddings as embeddings_mod
from zrxner.cli import _load_table
from zrxner.embeddings import (
    EmbeddingTable,
    apply_mapper,
    load_vec_text,
    normalize,
    select_rows,
    write_vec_text,
)
from zrxner.errors import ParseError, UsageError

import oracles

VEC_3X4 = "3 4\nthe 0.1 0.2 0.3 0.4\nof 1 2 3 4\nParis -1 0 0.5 2\n"


def test_load_basic():
    table = load_vec_text(io.StringIO(VEC_3X4))
    assert len(table) == 3
    assert table.dim == 4
    assert table.words == ["the", "of", "Paris"]
    np.testing.assert_allclose(table.vectors[table.row("of")], [1, 2, 3, 4])


@pytest.mark.parametrize("ch", ["\u2028", "\x85", "\x1c", "\x0b", "\x0c", "\r"],
                         ids=lambda c: f"U+{ord(c):04X}")
def test_load_str_splits_lines_like_a_stream(ch):
    text = f"2 2\na{ch}b 1 2\nc 3 4\n"
    table = load_vec_text(text)
    assert table.words == [f"a{ch}b", "c"]
    assert load_vec_text(io.StringIO(text)).words == table.words


def test_load_limit():
    table = load_vec_text(io.StringIO(VEC_3X4), limit=2)
    assert table.words == ["the", "of"]


def test_load_dimension_mismatch_line_number():
    bad = "2 4\nok 1 2 3 4\nshort 1 2 3\n"
    with pytest.raises(ParseError, match="line 3"):
        load_vec_text(io.StringIO(bad))


def test_load_duplicates_keep_first():
    text = "3 2\na 1 1\na 9 9\nb 2 2\n"
    table = load_vec_text(io.StringIO(text))
    np.testing.assert_allclose(table.vectors[table.row("a")], [1, 1])
    assert table.words == ["a", "b"]


def test_lookup_exact_lower_unk():
    table = load_vec_text(io.StringIO("2 2\nparis 1 2\nLondon 3 4\n"))
    assert table.row("paris") == 0
    assert table.row("Paris") == 0  # lowercase hit
    assert table.row("LONDON") == 1
    assert table.row("tokyo") == -1  # UNK: the tagger reads all zeros


# case forms that collide in lowercase, some of them only through Unicode
# case rules: lowercase that changes the length, and a final sigma
CASE_FORMS = ["paris", "Paris", "PARIS", "pArIs", "berlin", "Berlin", "BERLIN",
              "\u01c5emal", "\u01c6emal", "\u01c4emal", "stra\u00dfe", "STRASSE",
              "\u0130stanbul", "i\u0307stanbul", "\u03a3\u0391\u03a3",
              "\u03c3\u03b1\u03c2", "\u03c3\u03b1\u03c3"]


def test_selected_rows_give_every_token_the_whole_tables_vector():
    # the rows select_rows picks, alone, look every token up as the whole
    # table does: exact, lowercase-only, out-of-vocabulary and repeated
    # tokens, over vocabularies with case collisions at several ranks
    rng = np.random.default_rng(20261020)
    filler = [f"w{i}" for i in range(30)]
    for case in range(400):
        pool = CASE_FORMS + filler
        picks = rng.integers(0, len(pool), int(rng.integers(0, 40)))
        words = list(dict.fromkeys(pool[k] for k in picks))
        vectors = rng.normal(size=(len(words), 3)).astype(np.float32)
        full = EmbeddingTable(words, vectors)
        asked = (CASE_FORMS + words + [w.upper() for w in words]
                 + [w.lower() for w in words] + ["unknown", "W1", ""])
        tokens = [asked[k] for k in rng.integers(0, len(asked),
                                                 int(rng.integers(0, 30)))]
        rows = select_rows(words, tokens)
        assert rows == sorted(set(rows))
        assert set(rows) == {full.row(t) for t in tokens} - {-1}  # those alone
        assert select_rows(iter(words), iter(tokens)) == rows  # one pass
        part = EmbeddingTable([words[i] for i in rows], vectors[rows])
        for token in tokens:
            want, got = full.row(token), part.row(token)
            assert (want == -1) == (got == -1), (case, token)
            if want >= 0:
                assert part.vectors[got].tobytes() == full.vectors[want].tobytes()


def test_normalize_unit():
    rows = np.array([[3.0, 4.0], [0.0, 0.0]])
    unit = normalize(rows)
    np.testing.assert_allclose(unit[0], [0.6, 0.8])
    np.testing.assert_allclose(unit[1], [0.0, 0.0])  # zero row kept
    assert rows[0, 0] == 3.0  # a new array unless out= says otherwise
    assert normalize(rows, out=rows) is rows
    assert rows.tobytes() == unit.tobytes()


def test_normalize_bits_do_not_depend_on_the_blocks():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2 * embeddings_mod.BLOCK_ROWS + 37, 300))
    rows[5] = 0.0
    whole = oracles.normalize_table(EmbeddingTable(
        [str(i) for i in range(len(rows))], rows)).vectors
    assert normalize(rows).tobytes() == whole.tobytes()
    assert normalize(rows, out=rows.copy()).tobytes() == whole.tobytes()


def test_apply_mapper_identity_and_scale():
    table = EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    same = apply_mapper(table, np.eye(2))
    np.testing.assert_allclose(same.vectors, table.vectors)
    doubled = apply_mapper(table, 2 * np.eye(2))
    np.testing.assert_allclose(doubled.vectors, 2 * table.vectors)


def test_apply_mapper_matches_direct_product():
    rng = np.random.default_rng(3)
    table = EmbeddingTable(list("abcde"), rng.normal(size=(5, 4)))
    w = rng.normal(size=(4, 4))
    mapped = apply_mapper(table, w)
    for i, word in enumerate(table.words):
        np.testing.assert_allclose(mapped.vectors[mapped.row(word)],
                                   w @ table.vectors[i])


def test_apply_mapper_composition():
    rng = np.random.default_rng(5)
    table = EmbeddingTable(list("abc"), rng.normal(size=(3, 6)))
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))
    twice = apply_mapper(apply_mapper(table, a), b)
    once = apply_mapper(table, b @ a)
    np.testing.assert_allclose(twice.vectors, once.vectors, atol=1e-10)


def test_apply_mapper_dimension_check():
    table = EmbeddingTable(["a"], [[1.0, 2.0]])
    with pytest.raises(UsageError):
        apply_mapper(table, np.eye(3))


def test_write_read_idempotent():
    rng = np.random.default_rng(9)
    table = EmbeddingTable(["x", "Y", "zz"], rng.normal(size=(3, 5)))
    buf = io.StringIO()
    write_vec_text(table, buf)
    again = load_vec_text(io.StringIO(buf.getvalue()))
    assert again.words == table.words
    np.testing.assert_allclose(again.vectors, table.vectors, atol=1e-6)
    buf2 = io.StringIO()
    write_vec_text(again, buf2)
    assert buf.getvalue() == buf2.getvalue()


@pytest.mark.parametrize("word", ["a b", "a\nb", " "])
def test_write_vec_refuses_a_word_that_would_not_load(word):
    table = EmbeddingTable(["ok", word], [[1.0, 0.0], [0.0, 1.0]])
    out = io.StringIO()
    with pytest.raises(UsageError, match="cannot store"):
        write_vec_text(table, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("seed", range(5))
def test_vec_write_read_loop_is_bit_identical(seed, tmp_path):
    rng = np.random.default_rng(seed)
    alphabet = ["a", "\u00e9", "\u00a0", "\u2028", "\x85", "\t", "\r"]
    words = []
    while len(words) < 30:
        word = "".join(rng.choice(alphabet, size=rng.integers(1, 5)))
        if word not in words:
            words.append(word)
    vectors = rng.normal(size=(30, 6)) * 10.0 ** rng.integers(-300, 300,
                                                              size=(30, 6))
    vectors[0, 0] = -0.0
    table = EmbeddingTable(words, vectors)
    path = tmp_path / "t.vec"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_vec_text(table, fh, fmt="%.17g")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        from_file = load_vec_text(fh, limit=None)
    text = path.read_bytes()
    for again in (from_file, load_vec_text(text, limit=None),
                  load_vec_text(text.decode("utf-8"), limit=None)):
        assert again.words == words
        assert again.vectors.tobytes() == table.vectors.tobytes()


# ---------------------------------------------------------------------------
# The chunked loader against the per-line reference


def _outcome(load, data, limit):
    """Words and vector bits, or the type, message and line of the error."""
    try:
        table = load(data, limit=limit)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    return ("loaded", table.words, table.vectors.shape, table.vectors.tobytes())


_WORDS = ["the", "of", "Paris", "caf\u00e9", "a\rb", "x\u2028y", "", "#",
          "\u0663", "nan"]


_ODD_VALUES = ["-0.0", "nan", "-inf", "1e-400", "1_0", "\u0661\u0662", "\t1",
               "1\x0b", "1\x1c", "abc", ""]


def _value(rng):
    x = rng.normal() * 10.0 ** rng.integers(-30, 30)
    return ("%.17g" % x, "%.6f" % x, "%.3e" % x,
            *_ODD_VALUES)[rng.integers(3 + len(_ODD_VALUES))]


def _fuzz_vec(rng):
    """A small .vec text with the rough edges of real and broken files."""
    dim = int(rng.integers(1, 5))
    n_rows = int(rng.integers(0, 12))
    lines = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.08:
            lines.append(["\n", " \n"][rng.integers(2)])  # blank
            continue
        count = dim + (int(rng.integers(-1, 2)) if roll < 0.16 else 0)
        values = [_value(rng) if rng.random() < 0.15 else "%.17g" % rng.normal()
                  for _ in range(max(count, 0))]
        sep = "  " if rng.random() < 0.03 else " "
        line = sep.join([_WORDS[rng.integers(len(_WORDS))]] + values)
        if rng.random() < 0.3:
            line += " "  # fastText's trailing space
        if rng.random() < 0.03:
            line = line.replace(" ", " 1\r", 1)
        lines.append(line + ("\r\n" if rng.random() < 0.1 else "\n"))
    n = n_rows + int(rng.integers(-3, 4))
    header = [f"{n} {dim}", f"{n} {dim}", f"{n} {dim}", f"{10 ** 12} {dim}",
              f" {n}  {dim} ", f"{n}"][rng.integers(6)]
    return header + "\n" + "".join(lines)


@pytest.mark.parametrize("block_rows", [1, 3, 1024])
def test_chunked_loader_matches_the_per_line_reader(block_rows, monkeypatch):
    monkeypatch.setattr(embeddings_mod, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(embeddings_mod, "GROW_BYTES", 40)  # grow every chunk
    rng = np.random.default_rng(block_rows)
    outcomes = set()
    for _ in range(400):
        text = _fuzz_vec(rng)
        limit = [None, 200000, 0, 2, 5][rng.integers(5)]
        expected = _outcome(oracles.load_vec_text, text, limit)
        outcomes.add(expected[0] if expected[0] == "loaded" else expected[2][:12])
        for data in (text, text.encode("utf-8"), io.StringIO(text),
                     io.BytesIO(text.encode("utf-8"))):
            assert _outcome(load_vec_text, data, limit) == expected, text
    assert len(outcomes) >= 4  # loads, count errors, value errors, headers


@pytest.mark.parametrize("text", [
    "3 2\na 1 2\nb 1 x\nc 1\n",  # value error before a count error
    "4 2\na 1 2\nb 1 2 3\nc x 1\n",  # count error before a value error
    "3 2\na 1 2\na 1\nb 1 2\n",  # a skipped duplicate still counts values
    "3 2\na x 2\na 1\n",  # a value error before a duplicate's count error
    "5 2\na 1 2\nb 1 2\n",  # header overstates n
    "1 2\na 1 2\nb 1\n",  # header understates n: line 3 is never read
    "9 2\na 1 2\n\n \nb 1 2 \r\nc 1_0 2\n",
    "2 2\na 1\x1c 2\nb \u0663 -0.0\n",
    "2 1\nb 1\r2\na \r",  # NumPy's parser takes a "\r" for a line end
    "2 2\na nan 2\nb 1 x\n",  # the value error precedes the finite check
    "2 0\na\nb \n",
    "0 -1\n",
    "2 -1\na\n",
])
@pytest.mark.parametrize("block_rows", [1, 1024])
def test_chunked_loader_cases(text, block_rows, monkeypatch):
    monkeypatch.setattr(embeddings_mod, "BLOCK_ROWS", block_rows)
    for limit in (None, 1):
        assert (_outcome(load_vec_text, text, limit)
                == _outcome(oracles.load_vec_text, text, limit))


def test_a_value_error_comes_before_a_later_undecodable_line():
    data = b"3 2\na 1 x\nb \xff 1\nc 1 2\n"
    with pytest.raises(ParseError, match="line 2: non-numeric"):
        load_vec_text(io.BytesIO(data))


@pytest.mark.parametrize("seed", range(3))
def test_cli_table_is_the_normalized_per_line_table(seed, tmp_path):
    rng = np.random.default_rng(seed)
    words = [f"w{i}\u00e9" if i % 3 else f"w{i}" for i in range(2500)]
    vectors = rng.normal(size=(2500, 7)) * 10.0 ** rng.integers(-5, 5,
                                                               size=(2500, 1))
    vectors[17] = 0.0
    path = tmp_path / "t.vec"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_vec_text(EmbeddingTable(words, vectors), fh, fmt="%.17g")
    table = _load_table(str(path), None, "src")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        expected = oracles.normalize_table(
            oracles.load_vec_text(fh, limit=None, language="src"))
    assert table.words == expected.words
    # normalized in float64, then rounded once
    assert table.vectors.dtype == np.float32
    assert (table.vectors.tobytes()
            == expected.vectors.astype(np.float32).tobytes())


def _write_generated_vec(path, n, dim, header_n=None):
    rng = np.random.default_rng(0)
    rows = [" ".join("%.6f" % x for x in rng.normal(size=dim))
            for _ in range(64)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n if header_n is None else header_n} {dim}\n")
        for i, row in zip(range(n), itertools.cycle(rows)):
            fh.write(f"w{i} {row}\n")


# Beyond the table: one chunk of text and its parsed rows, and the words
# with their lookup dictionaries.
LOAD_ALLOWANCE = 16 << 20


def test_loading_holds_the_table_plus_one_chunk(tmp_path):
    path = tmp_path / "big.vec"
    n, dim = 20000, 300
    _write_generated_vec(path, n, dim)
    tracemalloc.start()
    try:
        table = _load_table(str(path), None, "")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.vectors.shape == (n, dim)
    assert table.vectors.dtype == np.float32
    assert peak <= table.vectors.nbytes + LOAD_ALLOWANCE
    # beyond what loading leaves held (the float32 table, its words and
    # their lookup dictionaries), one chunk of scratch: its text three
    # times (the lines, their value texts and the parser's input) and its
    # rows in float64, so no float64 copy of the table is ever made
    chunk_text = path.stat().st_size * embeddings_mod.BLOCK_ROWS / n
    assert peak - held <= 3 * chunk_text + embeddings_mod.BLOCK_ROWS * dim * 8


@pytest.mark.parametrize("limit", [None, 200000])
def test_an_overstated_header_reserves_at_most_one_step(limit, tmp_path):
    path = tmp_path / "few.vec"
    _write_generated_vec(path, 3, 300, header_n=10 ** 12)
    tracemalloc.start()
    try:
        table = _load_table(str(path), limit, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.vectors.shape == (3, 300)
    assert table.vectors.base is None  # trimmed to the rows read
    assert peak <= embeddings_mod.GROW_BYTES + LOAD_ALLOWANCE
