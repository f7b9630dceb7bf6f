"""zrxner.workers: the BLAS thread count, the forked child that sends arrays
home, and predict spread over such children. Every path must leave no child
process behind."""

import os
import signal
import warnings

import numpy as np
import pytest

import zrxner.tagger as tagger
from zrxner import workers
from zrxner.tagger import predict

from test_tagger import tiny_model, tiny_table


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _need_thread_control():
    if workers._openblas_threads() is None:
        pytest.skip("NumPy's BLAS exposes no scipy_openblas thread-count "
                    "functions here")


def _threads():
    return workers.numeric_environment()["blas_threads"]


def test_blas_threads_sets_and_restores_the_count():
    _need_thread_control()
    before = _threads()
    for n in (1, 3):
        with workers.blas_threads(n) as pinned:
            assert pinned is True and _threads() == n
        assert _threads() == before
    with pytest.raises(KeyError):
        with workers.blas_threads(1):
            raise KeyError("inside the block")
    assert _threads() == before


def test_blas_threads_says_so_where_the_functions_are_missing(monkeypatch):
    monkeypatch.setattr(workers, "_openblas_threads", lambda: None)
    with workers.blas_threads(1) as pinned:
        assert pinned is False
    env = workers.numeric_environment()
    assert env["blas_threads"] is None
    assert env["numpy"] == np.__version__


def _arrays(n):
    return [np.arange(n, dtype=np.int64), np.linspace(0, 1, 6).reshape(2, 3),
            np.frombuffer("wörd\nx".encode(), dtype=np.uint8),
            np.empty((0, 4)), np.float32(2.5) * np.ones((3, 1), np.float32)]


def test_child_sends_its_arrays_home():
    with workers.Child(_arrays, 70000) as child:  # more than a pipe buffer
        got = child.result()
    _assert_no_child_left()
    want = _arrays(70000)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _raise():
    raise ValueError("child failed")


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _not_contiguous():
    return [np.asfortranarray(np.ones((3, 4)))]


def _warn():
    warnings.warn("a warning in the child", RuntimeWarning)
    return [np.ones(2)]


@pytest.mark.parametrize("fn", [_raise, _die, _not_contiguous])
def test_child_that_fails_or_dies_gives_none(fn):
    with workers.Child(fn) as child:
        assert child.result() is None
    _assert_no_child_left()


def test_child_that_warns_fails_whatever_the_callers_filters():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with workers.Child(_warn) as child:
            assert child.result() is None
    _assert_no_child_left()


def test_child_without_fork_gives_none(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with workers.Child(_arrays, 3) as child:
        assert child.result() is None
    _assert_no_child_left()


def _sleep():
    signal.pause()  # until killed
    return []


def test_child_still_running_is_killed_when_the_block_raises():
    with pytest.raises(KeyError):
        with workers.Child(_sleep):
            raise KeyError("the caller failed")
    _assert_no_child_left()


def _tagging_input():
    """A model with a random transition matrix, a table and 41 sentences of
    1 to 9 tokens, some out of the table."""
    model = tiny_model(seed=5)
    model.head["trans"][:] = np.random.default_rng(6).normal(
        size=model.head["trans"].shape)
    table = tiny_table()
    rng = np.random.default_rng(7)
    words = table.words + ["hh", "az"]
    sentences = [[words[j] for j in rng.integers(0, len(words), n)]
                 for n in rng.integers(1, 10, 41)]
    return model, table, sentences


@pytest.mark.parametrize("size", ["chunks", "one chunk", "empty"])
def test_predict_gives_the_same_tags_for_every_job_count(monkeypatch, size):
    model, table, sentences = _tagging_input()
    if size == "chunks":
        monkeypatch.setattr(tagger, "EVAL_TOKENS", 20)  # about 10 chunks
    elif size == "empty":
        sentences = []
    with workers.blas_threads(1):
        got = [predict(model, "src", table, sentences, jobs=jobs)
               for jobs in (1, 2, 3)]
    _assert_no_child_left()
    assert got[0] == got[1] == got[2]
    assert len(got[0]) == len(sentences)
    assert [len(t) for t in got[0]] == [len(s) for s in sentences]


@pytest.mark.parametrize("failing", ["one child", "every child"])
@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_predict_tags_a_failed_childs_chunks_here(monkeypatch, failure,
                                                  failing):
    model, table, sentences = _tagging_input()
    monkeypatch.setattr(tagger, "EVAL_TOKENS", 20)
    parent = os.getpid()
    share_tag_ids = tagger._share_tag_ids
    here = []  # the shares tagged in this process

    def tag_share(model, lang, table, sentences, share):
        if os.getpid() != parent and (failing == "every child"
                                      or share == fail):
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("child failed")
        here.append(share)
        return share_tag_ids(model, lang, table, sentences, share)

    monkeypatch.setattr(tagger, "_share_tag_ids", tag_share)
    fail = None
    with workers.blas_threads(1):
        want = predict(model, "src", table, sentences)
        (chunks,) = here
        assert len(chunks) >= 6
        here.clear()
        fail = chunks[1::3]  # the first child's share
        got = predict(model, "src", table, sentences, jobs=3)
    _assert_no_child_left()
    assert got == want
    redone = [chunks[1::3]] + ([chunks[2::3]] if failing == "every child" else [])
    assert here == [chunks[0::3]] + redone
