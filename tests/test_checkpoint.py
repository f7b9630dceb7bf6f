import hashlib
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from zrxner.checkpoint import (
    CHUNK_BYTES,
    FORMAT_VERSION,
    MAGIC,
    SelectedRows,
    load_checkpoint,
    save_checkpoint,
)
from zrxner.errors import CheckpointError, UsageError

import oracles


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(7,)).astype(np.float32),
        "scalarish": np.array([[3.14159], [2.71828]]),
    }
    config = {"seed": "42", "variant": "cross_word", "rng": "pcg64"}
    path = tmp_path / "m.zrx"
    save_checkpoint(path, config, tensors)
    got_config, got = load_checkpoint(path)
    assert got_config == config
    for name, arr in tensors.items():
        assert got[name].dtype == arr.dtype
        assert (got[name] == arr).all()  # bit-exact


def test_checksum_detects_corruption(tmp_path):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {"k": "v"}, {"t": np.ones((2, 2))})
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {}, {"t": np.zeros(1)})
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    # keep checksum consistent so the magic check is what fires
    import hashlib

    payload = bytes(blob[:-8])
    blob[-8:] = hashlib.sha256(payload).digest()[:8]
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {}, {"t": np.zeros(1)})
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    import hashlib

    payload = bytes(blob[:-8])
    blob[-8:] = hashlib.sha256(payload).digest()[:8]
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_magic_bytes_value(tmp_path):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {}, {})
    assert path.read_bytes()[:4] == MAGIC == b"ZRXN"


def test_deterministic_bytes(tmp_path):
    tensors = {"x": np.arange(6, dtype=np.float64).reshape(2, 3)}
    p1, p2 = tmp_path / "a.zrx", tmp_path / "b.zrx"
    save_checkpoint(p1, {"a": 1, "b": "two"}, tensors)
    save_checkpoint(p2, {"b": "two", "a": 1}, tensors)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# The streaming writer and reader against the whole-file ones in oracles.py

# characters a config line may hold beside "\n" and "=" (which it may not)
CONFIG_CHARS = ["a", "Z", "0", ".", " ", "\u2028", "\x85", "\r", "\x1c",
                "\x00", "\U0001F600", "\u00e9", "\t"]
SPECIALS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1.5e-45]


def _random_text(rng, allowed, max_len=6):
    return "".join(allowed[i] for i in rng.integers(0, len(allowed),
                                                    rng.integers(0, max_len)))


def _random_config(rng):
    chars = CONFIG_CHARS + (["\n", "="] if rng.random() < 0.15 else [])
    config = {}
    for _ in range(rng.integers(0, 5)):
        config[_random_text(rng, chars)] = _random_text(rng, chars)
    return config


def _random_tensor(rng):
    rank = int(rng.integers(0, 4))
    shape = tuple(int(d) for d in rng.integers(0, 4, rank))
    dtype = [np.float32, np.float64][rng.integers(0, 2)]
    arr = rng.normal(size=shape).astype(dtype)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        if rng.random() < 0.3:
            flat[i] = SPECIALS[rng.integers(0, len(SPECIALS))]
    if flat.size and rng.random() < 0.3:  # a NaN with a payload
        bits = flat.view(np.uint32 if dtype == np.float32 else np.uint64)
        bits[0] = 0x7FC00123 if dtype == np.float32 else 0x7FF8000000000123
    kind = rng.integers(0, 9)
    if rank == 0 and kind == 0:
        return dtype(arr[()])  # a NumPy scalar
    if kind == 1:  # stored as f64
        return arr.astype([">f8", ">f4", np.float16][rng.integers(0, 3)])
    if kind == 2:
        return rng.integers(-9, 9, shape).astype(np.int32)
    if kind == 3:
        return arr.T  # not C-contiguous from rank 2
    if kind == 4:
        return arr.tolist()
    return arr


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared by type and message below
        return None, exc


def test_writer_matches_whole_file_writer(tmp_path):
    rng = np.random.default_rng(20261019)
    refused = 0
    for case in range(300):
        config = _random_config(rng)
        names = CONFIG_CHARS + ["\n", "="]
        tensors = {_random_text(rng, names): _random_tensor(rng)
                   for _ in range(rng.integers(0, 4))}
        new, old = tmp_path / f"new{case}.zrx", tmp_path / f"old{case}.zrx"
        _, new_exc = _outcome(save_checkpoint, new, config, tensors)
        _, old_exc = _outcome(oracles.save_checkpoint, old, config, tensors)
        if old_exc is not None:
            assert isinstance(old_exc, UsageError)
            assert type(new_exc) is type(old_exc)
            assert str(new_exc) == str(old_exc)
            assert not new.exists()
            refused += 1
            continue
        assert new_exc is None, new_exc
        assert new.read_bytes() == old.read_bytes(), case
        got_config, got = load_checkpoint(new)
        want_config, want = oracles.load_checkpoint(old)
        _assert_same_load((got_config, got), (want_config, want))
    assert 10 < refused < 150


def _assert_same_load(got, want):
    got_config, got_tensors = got
    want_config, want_tensors = want
    assert got_config == want_config
    assert list(got_tensors) == list(want_tensors)
    for name, arr in want_tensors.items():
        assert got_tensors[name].dtype == arr.dtype
        assert got_tensors[name].shape == arr.shape
        assert got_tensors[name].tobytes() == arr.tobytes()  # NaN bits too


def _signed(payload):
    return bytes(payload) + hashlib.sha256(bytes(payload)).digest()[:8]


def _header_fields(payload):
    """(offset, struct format) of every integer header field of a valid
    payload, in file order."""
    spots = [(4, "<H"), (6, "<I")]
    (config_len,) = struct.unpack_from("<I", payload, 6)
    offset = 10 + config_len
    spots.append((offset, "<I"))
    (count,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    for _ in range(count):
        spots.append((offset, "<I"))
        offset += 4 + struct.unpack_from("<I", payload, offset)[0]
        spots.append((offset, "<I"))
        (rank,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        spots.extend((offset + 4 * i, "<I") for i in range(rank))
        shape = struct.unpack_from(f"<{rank}I", payload, offset)
        offset += 4 * rank
        spots.append((offset, "<B"))
        offset += 1 + math.prod(shape) * (4, 8)[payload[offset]]
    return spots


# structural errors whose message the streaming reader changes on purpose:
# the whole-file reader ran past the end of its buffer (struct.error, or a
# reshape ValueError after an int64 overflow), read a shape of more than 64
# dimensions, or raised UnicodeDecodeError
REWORDED = ("truncated header", "truncated config block", "truncated tensor header",
            "truncated tensor name", "truncated tensor shape",
            "config block is not valid UTF-8", "tensor name is not valid UTF-8")


def _reworded(message):
    return message in REWORDED or message.startswith("tensor rank ")


def _assert_loads_alike(path):
    got, new_exc = _outcome(load_checkpoint, path)
    want, old_exc = _outcome(oracles.load_checkpoint, path)
    if old_exc is None:
        assert new_exc is None, new_exc
        _assert_same_load(got, want)
        return None
    assert isinstance(new_exc, CheckpointError), (old_exc, new_exc)
    message = str(new_exc)
    if isinstance(old_exc, CheckpointError) and not _reworded(message):
        assert message == str(old_exc)
    elif not isinstance(old_exc, CheckpointError):
        assert isinstance(old_exc, (struct.error, UnicodeDecodeError, ValueError))
        assert _reworded(message) or message == "truncated tensor data", \
            (old_exc, message)
    return message


def _small_checkpoint(path):
    save_checkpoint(path, {"a": "1", "k": "v\u2028w", "\U0001F600": ""}, {
        "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "e": np.array([1.5, -0.0], dtype=np.float32),
        "s": np.float64(np.nan),
    })
    return path.read_bytes()


def _damaged_variants(blob):
    """Damaged copies of the checkpoint bytes blob: truncated, extended,
    with a byte flipped, a header field rewritten or a name that is not
    UTF-8, each raw and with its checksum recomputed."""
    payload = blob[:-8]
    variants = []
    for cut in range(len(blob)):  # every truncation, raw and re-signed
        variants.append(blob[:cut])
        variants.append(_signed(payload[:cut]))
    for extra in (b"\x00", b"xyz" * 5):  # appended, raw and re-signed
        variants.append(blob + extra)
        variants.append(_signed(payload + extra))
    rng = np.random.default_rng(7)
    for _ in range(200):  # byte flips, raw and re-signed
        damaged = bytearray(blob)
        damaged[rng.integers(0, len(blob))] ^= int(rng.integers(1, 256))
        variants.append(bytes(damaged))
        variants.append(_signed(damaged[:-8]))
    for offset, fmt in _header_fields(payload):  # rewritten header fields
        (value,) = struct.unpack_from(fmt, payload, offset)
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        for new in {0, 1, 2, 3, 65, value - 1, value + 1, 2**31, top} - {value}:
            if 0 <= new <= top:
                damaged = bytearray(payload)
                struct.pack_into(fmt, damaged, offset, new)
                variants.append(_signed(damaged))
    name = _header_fields(payload)[3][0] + 4  # the first tensor's name
    for where, bad in [(10, b"\xff"), (10, b"a\xc3"), (10, b"\xed\xa0\x80"),
                       (name, b"\xff"), (name, b"\x80")]:  # not UTF-8
        variants.append(_signed(payload[:where] + bad + payload[where + len(bad):]))
    return variants


def test_reader_matches_whole_file_reader_on_damaged_files(tmp_path):
    blob = _small_checkpoint(tmp_path / "ok.zrx")
    path = tmp_path / "m.zrx"
    variants = _damaged_variants(blob)
    messages = {}
    for data in variants:
        path.write_bytes(data)
        message = _assert_loads_alike(path)
        messages[message] = messages.get(message, 0) + 1
    # the damage reaches every check of the reader
    for expected in ("checksum mismatch: file is corrupt", "bad magic bytes",
                     "truncated tensor data", "trailing bytes after tensor section",
                     "file too short to be a checkpoint", "truncated header",
                     "truncated tensor name", "truncated tensor shape",
                     "config block is not valid UTF-8",
                     "tensor name is not valid UTF-8"):
        assert messages.get(expected), (expected, messages)
    assert any(m and m.startswith("unknown dtype tag") for m in messages)
    assert any(m and m.startswith("unsupported checkpoint version") for m in messages)
    assert any(m and m.startswith("malformed config line") for m in messages)
    assert None in messages  # some rewrites still load, and load alike


def _by_rows(rows_of):
    """A load_checkpoint selection that reads every tensor by the rows
    rows_of(name) gives, or whole where that is None."""
    return lambda config: rows_of


def _assert_selected_like(selected, tensors, rows_of):
    """selected holds each tensor of tensors (the whole load) as the
    SelectedRows of the rows rows_of(name) gives that it has."""
    assert list(selected) == list(tensors)
    for name, arr in tensors.items():
        got = selected[name]
        assert isinstance(got, SelectedRows)
        by_rows = arr if arr.ndim else arr.reshape(1)  # a scalar is one row
        rows = [i for i in rows_of(name) if i < len(by_rows)]
        assert got.shape == arr.shape
        assert got.finite is bool(np.isfinite(arr).all())
        assert got.rows.tolist() == rows
        assert got.values.dtype == arr.dtype
        assert got.values.tobytes() == by_rows[rows].tobytes()


def _table_checkpoint(path):
    """A checkpoint of a 7-row float32 table that holds an infinity, a
    float64 tensor and a NaN scalar; its bytes."""
    table = np.arange(14, dtype=np.float32).reshape(7, 2) / 3
    table[4, 1] = np.inf
    save_checkpoint(path, {"a": "1"}, {
        "t": table, "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "s": np.float64(np.nan)})
    return path.read_bytes()


# rows of every tensor, by name: none, the first, the last of the intact
# file, and scattered; indices beyond a tensor's rows are dropped
SELECTIONS = {
    "none": lambda name: (),
    "first": lambda name: (0,),
    "last": lambda name: ({"t": 6, "w": 1}.get(name, 0),),
    "scattered": lambda name: (0, 2, 3, 6),
}


def test_skipped_tensors_keep_every_refusal_on_damaged_files(tmp_path):
    # a tensor read by rows is hashed and checked whole, holds only the rows
    # selected, and is refused exactly as a tensor read whole
    path = tmp_path / "m.zrx"
    selections = [*SELECTIONS.values(),
                  lambda name: None if name == "w" else (1, 5)]
    variants = [data for make in (_small_checkpoint, _table_checkpoint)
                for data in _damaged_variants(make(tmp_path / "ok.zrx"))]
    for data in variants:
        path.write_bytes(data)
        full, full_exc = _outcome(load_checkpoint, path)
        for rows_of in selections:
            got, exc = _outcome(load_checkpoint, path, _by_rows(rows_of))
            if full_exc is not None:
                assert type(exc) is type(full_exc) and str(exc) == str(full_exc)
                continue
            assert exc is None, exc
            config, tensors = got
            assert config == full[0]
            whole = {k: v for k, v in tensors.items() if isinstance(v, np.ndarray)}
            assert set(whole) == {k for k in tensors if rows_of(k) is None}
            _assert_same_load((config, whole),
                              (full[0], {k: full[1][k] for k in whole}))
            _assert_selected_like(
                {k: v for k, v in tensors.items() if k not in whole},
                {k: v for k, v in full[1].items() if k not in whole}, rows_of)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_skipped_tensor_checks_every_chunk_without_holding_it(tmp_path, dtype):
    step = CHUNK_BYTES // np.dtype(dtype).itemsize
    path = tmp_path / "m.zrx"
    for size, bad in [(0, None), (5, None), (step, step - 1), (2 * step + 3, None),
                      (2 * step + 3, step), (2 * step + 3, 2 * step + 2),
                      (3 * step, 0)]:
        arr = np.random.default_rng(size).normal(size=size).astype(dtype)
        if bad is not None:
            arr[bad] = (np.inf, np.nan)[size % 2]
        # the same values as rows of 3, which do not divide a chunk
        rows3 = arr[: size - size % 3].reshape(-1, 3)
        tensors = {"big": arr, "rows3": rows3, "small": np.ones(3)}
        save_checkpoint(path, {"k": "v"}, tensors)
        for rows in [(), (0,), (size - 1,), (size // 3 - 1,),
                     range(0, size, step // 3 + 1), (step - 1, step, step + 1)]:
            rows_of = lambda name, rows=[i for i in rows if i >= 0]: rows
            tracemalloc.start()
            try:
                config, got = load_checkpoint(path, _by_rows(rows_of))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert config == {"k": "v"}
            _assert_selected_like(got, tensors, rows_of)
            assert got["big"].finite is (bad is None)
            # one chunk and its finiteness mask, beside the rows selected
            kept = sum(v.values.nbytes + v.rows.nbytes for v in got.values())
            assert peak < 2 * CHUNK_BYTES + kept


def _rewritten(path, field, value):
    """path's checkpoint with one header field set to value and the checksum
    recomputed, so only the structural check can refuse it."""
    payload = bytearray(path.read_bytes()[:-8])
    offset, fmt = _header_fields(payload)[field]
    struct.pack_into(fmt, payload, offset, value)
    path.write_bytes(_signed(payload))


@pytest.mark.parametrize("field, value, message", [
    (1, 2**31, "truncated config block"),
    (2, 2**32 - 1, "truncated tensor header"),
    (3, 2**31, "truncated tensor name"),  # the first tensor's name length
    (4, 2**31, "tensor rank 2147483648 is not supported"),  # its rank
    (4, 64, "truncated tensor shape"),
    (5, 2**31, "truncated tensor data"),  # its only dimension
    (4, 65, "tensor rank 65 is not supported"),
])
def test_overrun_raises_checkpoint_error_without_allocating(tmp_path, field,
                                                            value, message):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {"k": "v"}, {"t": np.ones(3)})
    _rewritten(path, field, value)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < path.stat().st_size + (64 << 10)


@pytest.mark.parametrize("rank", [64, 65, 70])
def test_rank_beyond_numpy_is_a_checkpoint_error(tmp_path, rank):
    # a tensor of zero size and any rank fits the file; NumPy holds at most 64
    path = tmp_path / "m.zrx"
    tensor = struct.pack(f"<I1sI{rank}IB", 1, b"t", rank, 0, *[1] * (rank - 1), 1)
    payload = (MAGIC + struct.pack("<HI", FORMAT_VERSION, 0)
               + struct.pack("<I", 1) + tensor)
    path.write_bytes(_signed(payload))
    if rank <= 64:
        assert load_checkpoint(path)[1]["t"].shape == (0,) + (1,) * (rank - 1)
        return
    with pytest.raises(CheckpointError, match=f"tensor rank {rank} is not supported"):
        load_checkpoint(path)
    with pytest.raises(ValueError):  # the whole-file reader's traceback
        oracles.load_checkpoint(path)


@pytest.mark.parametrize("shape, message", [
    ((5, 0, 2**30, 2**30), "tensor rank 4 is not supported"),
    ((2**21, 0, 2**20, 2**20), "tensor rank 4 is not supported"),
    ((2**20, 0, 2**20, 2**20), None),
])
def test_tensor_without_values_is_refused_by_rows_as_whole(tmp_path, shape,
                                                           message):
    # a tensor of zero size fits the file whatever its other dimensions, and
    # NumPy refuses some of them; a load by rows refuses the same ones
    path = tmp_path / "m.zrx"
    tensor = struct.pack(f"<I1sI{len(shape)}IB", 1, b"t", len(shape), *shape, 0)
    payload = (MAGIC + struct.pack("<HI", FORMAT_VERSION, 0)
               + struct.pack("<I", 1) + tensor)
    path.write_bytes(_signed(payload))
    full, full_exc = _outcome(load_checkpoint, path)
    assert (None if full_exc is None else str(full_exc)) == message
    for rows_of in SELECTIONS.values():
        got, exc = _outcome(load_checkpoint, path, _by_rows(rows_of))
        if message is not None:
            assert type(exc) is CheckpointError and str(exc) == message
            continue
        assert exc is None, exc
        _assert_selected_like(got[1], full[1], rows_of)


def test_structural_fault_in_a_corrupt_file_reports_the_checksum(tmp_path):
    path = tmp_path / "m.zrx"
    save_checkpoint(path, {"k": "v"}, {"t": np.ones(3)})
    _rewritten(path, 4, 2**31)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(path)


def test_save_memory_is_bounded_by_the_largest_tensor(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"emb.src.vectors": rng.normal(size=(20000, 300)).astype(np.float32),
               "w": rng.normal(size=(400, 400)), "b": rng.normal(size=(400,))}
    largest = max(arr.nbytes for arr in tensors.values())
    tracemalloc.start()  # the inputs exist already and are not counted
    try:
        save_checkpoint(tmp_path / "m.zrx", {"k": "v"}, tensors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= largest + (1 << 20)
    assert (tmp_path / "m.zrx").read_bytes() == _oracle_bytes(tmp_path, tensors)


def test_float32_tensors_are_converted_a_chunk_at_a_time(tmp_path):
    rng = np.random.default_rng(1)
    f64 = rng.normal(size=(3000, 300))  # 7 MB: several chunks
    f64[5, 7] = 1e-40  # a float32 subnormal
    f64[9, 1] = np.nan
    tensors = {"emb.src.vectors": f64,
               "emb.tgt.vectors": f64[:1000].astype(">f8"),
               "emb.xx.vectors": f64[:, ::2],  # not C-contiguous
               "emb.f32.vectors": f64[:20].astype(np.float32),
               "w": rng.normal(size=(40, 40)), "s": np.float64(2.5)}
    float32 = {name for name in tensors if name.startswith("emb.")}
    tracemalloc.start()  # the inputs exist already and are not counted
    try:
        save_checkpoint(tmp_path / "m.zrx", {"k": "v"}, tensors, float32=float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of rounded rows, beside the one copy a non-contiguous input needs
    assert peak <= tensors["emb.xx.vectors"].nbytes + CHUNK_BYTES + (256 << 10)
    converted = {name: np.asarray(arr, np.float32) if name in float32 else arr
                 for name, arr in tensors.items()}
    assert (tmp_path / "m.zrx").read_bytes() == _oracle_bytes(tmp_path, converted)
    _, got = load_checkpoint(tmp_path / "m.zrx")
    assert {got[name].dtype for name in float32} == {np.dtype(np.float32)}


def _oracle_bytes(tmp_path, tensors):
    oracles.save_checkpoint(tmp_path / "oracle.zrx", {"k": "v"}, tensors)
    return (tmp_path / "oracle.zrx").read_bytes()


def test_checkpoint_read_from_a_pipe(tmp_path):
    blob = _small_checkpoint(tmp_path / "m.zrx")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, blob)  # fits in the pipe's buffer
        os.close(write_end)
        write_end = None
        got = load_checkpoint(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    _assert_same_load(got, load_checkpoint(tmp_path / "m.zrx"))


# ---------------------------------------------------------------------------
# Tensors copied through from the file they were loaded from; atomic saves


def _stored(path):
    """(config, name -> StoredTensor) of the checkpoint at path, read by rows
    with none held."""
    config, got = load_checkpoint(path, lambda config: lambda name: ())
    return config, {name: selected.stored for name, selected in got.items()}


def _listing(path):
    return sorted(entry.name for entry in path.iterdir())


def _two_chunk_tensors():
    rng = np.random.default_rng(7)
    return {"t32": rng.normal(size=(3000, 100)).astype(np.float32),
            "t64": rng.normal(size=(700, 300)),  # two chunks of f64
            "empty": np.zeros((0, 4), np.float32), "s": np.float64(2.5)}


def test_stored_tensors_save_as_their_arrays_do(tmp_path):
    tensors = _two_chunk_tensors()
    save_checkpoint(tmp_path / "in.zrx", {"k": "v"}, tensors)
    config, stored = _stored(tmp_path / "in.zrx")
    assert {name: (s.shape, s.dtype) for name, s in stored.items()} == {
        name: (np.atleast_1d(arr).shape, arr.dtype)
        for name, arr in tensors.items()}
    # some stored, some arrays; the f64 tensor also rounded to f32
    mixed = {**stored, "w": np.arange(6.0).reshape(2, 3)}
    for float32 in ((), {"t64"}):
        save_checkpoint(tmp_path / "copied.zrx", config, mixed, float32=float32)
        save_checkpoint(tmp_path / "whole.zrx", config,
                        {**tensors, "w": mixed["w"]}, float32=float32)
        assert (tmp_path / "copied.zrx").read_bytes() == \
            (tmp_path / "whole.zrx").read_bytes()
    # a pipe cannot be read again: its tensors read by rows have no StoredTensor
    blob = (tmp_path / "in.zrx").read_bytes()
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, blob),
                                              os.close(write_end)))
    writer.start()
    try:
        _, got = load_checkpoint(f"/dev/fd/{read_end}",
                                 lambda config: lambda name: ())
    finally:
        writer.join()
        os.close(read_end)
    assert {selected.stored for selected in got.values()} == {None}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_copying_a_stored_tensor_holds_at_most_two_chunks(tmp_path, dtype):
    table = np.random.default_rng(8).normal(size=(20000, 300)).astype(dtype)
    save_checkpoint(tmp_path / "in.zrx", {"k": "v"}, {"emb": table})
    _, stored = _stored(tmp_path / "in.zrx")
    tracemalloc.start()
    try:
        # stored as float32: a float64 table is rounded a chunk at a time
        save_checkpoint(tmp_path / "out.zrx", {"k": "v"}, stored,
                        float32={"emb"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * CHUNK_BYTES
    save_checkpoint(tmp_path / "whole.zrx", {"k": "v"}, {"emb": table},
                    float32={"emb"})
    assert (tmp_path / "out.zrx").read_bytes() == \
        (tmp_path / "whole.zrx").read_bytes()


def _flip_byte(path, at):
    """Change the byte at offset at of the file at path, in place: the file
    a load holds open changes too."""
    with open(path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 1]))


@pytest.mark.parametrize("change", ["values", "truncated", "while saving"])
def test_a_save_from_a_changed_file_is_refused_and_writes_nothing(
        tmp_path, monkeypatch, change):
    import zrxner.checkpoint as ck

    path = tmp_path / "in.zrx"
    save_checkpoint(path, {"k": "v"}, _two_chunk_tensors())
    _, stored = _stored(path)
    out = tmp_path / "out.zrx"
    out.write_bytes(b"an earlier file")
    size = path.stat().st_size
    # a byte of t64, the last tensor copied
    at = stored["t64"].offset + 1000
    if change == "truncated":
        os.truncate(path, size - 100)
    elif change == "values":
        _flip_byte(path, at)
    else:  # the tensors copied before it were as loaded
        real, copied = ck._put_tensor, []

        def changing(put, arr, dtype):
            if not copied:
                _flip_byte(path, at)
            copied.append(arr)
            real(put, arr, dtype)

        monkeypatch.setattr(ck, "_put_tensor", changing)
    with pytest.raises(CheckpointError) as exc:
        save_checkpoint(out, {"k": "v"}, stored)
    assert str(exc.value) == f"{path} changed since it was loaded"
    assert out.read_bytes() == b"an earlier file"
    assert _listing(tmp_path) == ["in.zrx", "out.zrx"]


def test_a_save_copies_the_tensor_bytes_that_were_checked_alone(tmp_path):
    # the config and the tensors a save is not given come from memory or
    # not at all: a change to them in the file refuses nothing
    tensors = _two_chunk_tensors()
    path = tmp_path / "in.zrx"
    save_checkpoint(path, {"k": "v"}, tensors)
    config, stored = _stored(path)
    _flip_byte(path, 12)  # in the config block
    _flip_byte(path, stored["t32"].offset)
    del stored["t32"]
    save_checkpoint(tmp_path / "copied.zrx", config, stored)
    del tensors["t32"]
    save_checkpoint(tmp_path / "whole.zrx", config, tensors)
    assert (tmp_path / "copied.zrx").read_bytes() == \
        (tmp_path / "whole.zrx").read_bytes()


def test_a_save_copies_from_the_file_loaded_where_its_path_is_replaced(
        tmp_path):
    tensors = _two_chunk_tensors()
    path = tmp_path / "in.zrx"
    save_checkpoint(path, {"k": "v"}, tensors)
    want = path.read_bytes()
    _, stored = _stored(path)
    # the save writes the path it copies from, then the file at that path
    # is replaced by another; each save still copies the file loaded
    save_checkpoint(path, {"k": "v"}, stored)
    assert path.read_bytes() == want
    save_checkpoint(tmp_path / "other.zrx", {"k": "w"}, {"x": np.ones(3)})
    os.replace(tmp_path / "other.zrx", path)
    save_checkpoint(tmp_path / "again.zrx", {"k": "v"}, stored)
    assert (tmp_path / "again.zrx").read_bytes() == want
    assert _listing(tmp_path) == ["again.zrx", "in.zrx"]


@pytest.mark.parametrize("existing", [False, True])
def test_a_save_that_fails_midway_leaves_its_path_as_it_was(
        tmp_path, monkeypatch, existing):
    import errno

    import zrxner.checkpoint as ck

    real, calls = ck._put_tensor, []

    def full_disk(put, arr, dtype):
        calls.append(arr)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(put, arr, dtype)

    monkeypatch.setattr(ck, "_put_tensor", full_disk)
    out = tmp_path / "out.zrx"
    if existing:
        out.write_bytes(b"an earlier file")
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(out, {}, {"a": np.ones(3), "b": np.ones(4)})
    assert len(calls) == 2
    assert _listing(tmp_path) == (["out.zrx"] if existing else [])
    if existing:
        assert out.read_bytes() == b"an earlier file"


def test_a_save_follows_a_link_and_writes_a_device_in_place(tmp_path):
    tensors = {"a": np.ones(2)}
    save_checkpoint(tmp_path / "want.zrx", {}, tensors)
    link = tmp_path / "link.zrx"
    link.symlink_to(tmp_path / "real.zrx")
    save_checkpoint(link, {}, tensors)
    assert link.is_symlink()
    assert (tmp_path / "real.zrx").read_bytes() == \
        (tmp_path / "want.zrx").read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "real.zrx").stat().st_mode & 0o777 == 0o666 & ~umask
    # a file saved over keeps its mode, as it did when written in place
    (tmp_path / "real.zrx").chmod(0o640)
    save_checkpoint(link, {}, {"b": np.ones(3)})
    assert (tmp_path / "real.zrx").stat().st_mode & 0o777 == 0o640
    save_checkpoint(os.devnull, {}, tensors)
    assert not os.path.isfile(os.devnull)
    # a directory that does not exist is named as the output's
    missing = tmp_path / "no" / "m.zrx"
    with pytest.raises(FileNotFoundError) as exc:
        save_checkpoint(missing, {}, tensors)
    assert exc.value.filename == missing


def test_a_save_in_a_directory_it_cannot_write_names_the_output(
        tmp_path, monkeypatch):
    import errno

    import zrxner.checkpoint as ck

    # a file that may be written in a directory that may not: the new file
    # cannot be made beside it, and the error names the output's path, which
    # is left as it was
    out = tmp_path / "m.zrx"
    out.write_bytes(b"an earlier file")
    real = os.open

    def no_new_files(path, flags, *args):
        if flags & os.O_CREAT and os.path.dirname(path) == str(tmp_path):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real(path, flags, *args)

    monkeypatch.setattr(ck.os, "open", no_new_files)
    with pytest.raises(PermissionError) as exc:
        save_checkpoint(out, {}, {"a": np.ones(2)})
    assert exc.value.filename == out
    assert _listing(tmp_path) == ["m.zrx"]
    assert out.read_bytes() == b"an earlier file"
