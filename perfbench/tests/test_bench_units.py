"""Unit tests of the benchmark's own pieces: the percentile rule, self-time
subtraction, the input-property counters and the generator's determinism."""

import filecmp
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, iob2_problem  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_top_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.top_percentile(n) == expected


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 90) == 90
    assert spans.percentile([7.0], 90) == 7.0
    assert spans.percentile(list(range(1, 1001)), 99.9) == 999


def test_self_time_nested_and_overlapping_siblings():
    rows = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],   # child of a
        ["c", 2.0, 5.0, 0],   # sibling of b, overlapping it
        ["d", 1.5, 2.0, 1],   # grandchild of a, child of b
        ["e", 11.0, 12.0, -1],  # a second root
    ]
    got = spans.self_times(rows)
    assert got == pytest.approx([10.0 - 4.0, 2.0 - 0.5, 3.0, 0.5, 1.0])


def test_self_time_clips_children_to_parent():
    rows = [["a", 0.0, 2.0, -1], ["b", 1.0, 3.0, 0]]
    assert spans.self_times(rows) == pytest.approx([1.0, 2.0])


def test_layer_metrics_report_missing_hooks_as_absent():
    dump = {"spans": [["cli.tag", 0.0, 1.0, -1],
                      ["tagger.predict", 0.1, 0.2, 0]],
            "counts": {}, "peaks": {},
            "absent": {"tagger.viterbi": "gone"}}
    metrics, absent, _ = spans.layer_metrics([dump])
    assert metrics["tagger.viterbi.s"] == (0.0, "s")
    assert "tagger.viterbi.s" in absent
    assert metrics["tagger.predict.calls"] == (1.0, "count")
    assert "tagger.predict.ms_p90" in absent  # one sample is too few
    assert metrics["cli.tag.s"] == (1.0, "s")


def test_properties_on_hand_written_corpus():
    sentences = [(["a", "b", "a"], None), (["c"], None), (["a", "d"], None)]
    props = gen.properties(sentences, table_words=["a", "B"])
    assert props["sentences"] == 3
    assert props["tokens"] == 6
    assert (props["length_p50"], props["length_p90"], props["length_max"]) == (2, 3, 3)
    # one batch of three: the second and third "a" repeat
    assert props["batch_repeated_tokens"] == 2
    # padded to 3 x 3 cells, 6 of them tokens
    assert props["batch_padding_cells"] == 3
    assert props["batch_padding_share"] == pytest.approx(1 / 3)
    # "b" finds "B" through the lowercase fallback; "c" and "d" are missing
    assert props["out_of_table_tokens"] == 2


def test_properties_split_batches_of_sixteen():
    sentences = [(["x"], None)] * 32
    props = gen.properties(sentences)
    assert props["batch_repeated_tokens"] == 30  # 15 repeats in each batch
    assert props["batch_padding_cells"] == 0


def test_stratified_lengths_are_conll_like_and_seed_free():
    lengths = gen.stratified_lengths(800)
    assert lengths == gen.stratified_lengths(800)
    ordered = sorted(lengths)
    assert ordered[len(ordered) // 2] == 14
    assert max(lengths) > 60


def test_format_rows_matches_printf():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 7)) * 0.4
    rows = gen.format_rows(x)
    for row, values in zip(rows, x):
        assert row.decode() == " " + " ".join("%.6f" % v for v in values)


def test_iob2_checker():
    assert iob2_problem(["O", "B-PER", "I-PER", "O", "B-LOC"]) is None
    assert iob2_problem(["O", "I-PER"]) is not None
    assert iob2_problem(["B-PER", "I-LOC"]) is not None
    assert iob2_problem(["S-PER"]) is not None


def _generate(directory, seed):
    rng = np.random.default_rng(seed)
    lex = gen.Lexicon(rng, 200, 10, dim=16)
    words, vecs = lex.table(200, 10)
    tgt_vecs, omega = gen.rotate(rng, vecs, noise=0.05)
    sentences = gen.make_sentences(rng, lex, gen.stratified_lengths(40), 200, 10,
                                   zipf_s=1.0)
    gen.write_vec(os.path.join(directory, "src.vec"), words, vecs)
    gen.write_vec(os.path.join(directory, "tgt.vec"),
                  [gen.cipher(w) for w in words], tgt_vecs)
    gen.write_conll(os.path.join(directory, "train"), sentences)
    gen.write_conll(os.path.join(directory, "tgt"), gen.to_target(sentences),
                    with_tags=False)
    gen.save_rotation_mapper(os.path.join(directory, "mapper.zrx"), omega)


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    first, second, other = (tmp_path / n for n in ("a", "b", "c"))
    for path, seed in ((first, 5), (second, 5), (other, 6)):
        path.mkdir()
        _generate(str(path), seed)
    names = sorted(os.listdir(first))
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    _, changed, _ = filecmp.cmpfiles(first, other, names, shallow=False)
    assert set(changed) == set(names)


def test_generated_target_is_a_cipher_with_identical_numerals():
    assert gen.cipher("1025") == "1025"
    assert gen.cipher("Bra") != "Bra" and gen.cipher("Bra")[0].isupper()
    assert gen.cipher("bra") == gen.cipher("Bra").lower()


def test_run_lists_every_workload():
    assert run.WORKLOAD_NAMES == tuple(sorted(WORKLOADS))
