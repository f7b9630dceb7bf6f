import io

import numpy as np
import pytest

from zrxner.embeddings import (
    EmbeddingTable,
    apply_mapper,
    load_vec_text,
    normalize,
    write_vec_text,
)
from zrxner.errors import ParseError, UsageError

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


def test_normalize_unit():
    table = EmbeddingTable(["w", "z"], [[3.0, 4.0], [0.0, 0.0]])
    unit = normalize(table)
    np.testing.assert_allclose(unit.vectors[0], [0.6, 0.8])
    np.testing.assert_allclose(unit.vectors[1], [0.0, 0.0])  # zero row kept


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
