"""Binary checkpoint container.

Layout (all integers little-endian):
  magic "ZRXN" | version u16 | config length u32 + UTF-8 key=value lines |
  tensor count u32 | per tensor: name length u32 + UTF-8 name, rank u32,
  dims u32 each, dtype tag u8 (0 = f32, 1 = f64), raw little-endian values |
  trailing 8-byte checksum (first 8 bytes of SHA-256 over everything before).

Round trips are bit-exact per tensor; the checksum is verified on load.
Saving and loading stream: each tensor goes between its array and the file
CHUNK_BYTES at a time through the running checksum, so neither holds the
file as one bytes object (a file that cannot seek, such as a pipe, is read
whole before it is loaded). A tensor saved in a narrower dtype than its
array is converted a chunk at a time, and a loader may hold only some rows
of a tensor, or none: the whole tensor is still hashed and checked, a chunk
of whole rows at a time. Such a tensor of a file that can be read again
also says where the file stores it (StoredTensor), and a save copies its
bytes from there, a chunk at a time, hashing them as it copies: bytes that
are not those the load checked refuse the save. A save writes a new file
beside its path and renames it into place, so one that is refused or fails
midway leaves any file at that path as it was. The config block is also
the flat form of the run settings (FlatConfig).
"""

import hashlib
import io
import math
import os
import stat
import struct
import weakref
from collections import namedtuple
from dataclasses import fields

import numpy as np

from .errors import CheckpointError, UsageError

MAGIC = b"ZRXN"
FORMAT_VERSION = 1
CHECKSUM_BYTES = 8
# Bytes of a tensor written, read or hashed in one call; loading a file
# that fails its checksum reads the rest in pieces of this size.
CHUNK_BYTES = 1 << 20
# The most dimensions a NumPy array can have (NumPy 2).
MAX_RANK = 64

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

# What load_checkpoint returns for a tensor its caller reads by rows: the
# tensor's shape, whether every value it holds is finite, the sorted indices
# of the rows kept (along its first axis), an array of those rows alone, and
# the StoredTensor of the whole tensor, or None where the file was read from
# a pipe and cannot be read again.
SelectedRows = namedtuple("SelectedRows", "shape finite rows values stored")
# A tensor as a loaded checkpoint file stores it: the file (a _LoadedFile),
# the offset of its values, its shape, its stored dtype, and the file's
# running checksum as the load had it before the tensor's bytes (a hashlib
# object) and once they had passed through it (its digest). save_checkpoint
# takes it in place of an array and copies its bytes from the file; bytes
# that take the one checksum to the other are those the load checked.
StoredTensor = namedtuple("StoredTensor", "file offset shape dtype before after")


def config_to_text(config):
    """Flat key=value block; keys sorted for byte-stable output."""
    lines = []
    for key in sorted(config):
        value = str(config[key])
        if "\n" in key or "=" in key or "\n" in value:
            raise UsageError(f"config entry {key!r} cannot be serialized flat")
        lines.append(f"{key}={value}")
    return "\n".join(lines)


def text_to_config(text, error=CheckpointError):
    """Inverse of config_to_text. Lines end at "\n" only, the one line break
    that config_to_text rejects, so values may hold any other. A line
    without "=" raises `error`, naming the line."""
    config = {}
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"malformed config line {line!r}")
        config[key] = value
    return config


def flat_to_fields(cls, prefix, flat):
    """Typed keyword arguments for the dataclass cls from the entries
    `prefix.field` of a flat config. Each value takes the type of the
    field's default; booleans are true or false in any case."""
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in flat:
            continue
        raw, kind = str(flat[key]), type(f.default)
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise UsageError(f"{key}={raw!r} is not true or false")
            kwargs[f.name] = raw.lower() == "true"
            continue
        try:
            kwargs[f.name] = kind(raw)
        except ValueError:
            raise UsageError(f"{key}={raw!r} is not a valid {kind.__name__}") from None
    return kwargs


class FlatConfig:
    """Base of the run-setting dataclasses: each field travels as the flat
    entry `PREFIX.field=value` in config files and checkpoints."""

    PREFIX = ""

    def to_flat(self):
        return {f"{self.PREFIX}.{f.name}": str(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_flat(cls, flat):
        return cls(**flat_to_fields(cls, cls.PREFIX, flat))

    def check(self, rules):
        """Raise UsageError for the first (field, holds, rule) that fails."""
        for name, ok, rule in rules:
            if not ok:
                raise UsageError(
                    f"{self.PREFIX}.{name} must be {rule}, got {getattr(self, name)}")


class _Malformed(Exception):
    """A structural fault in a checkpoint; load_checkpoint raises it as a
    CheckpointError only once the checksum over the whole file has passed."""


def _byte_chunks(arr):
    """Consecutive pieces of at most CHUNK_BYTES of the memory of a
    C-contiguous array, as views that share it."""
    view = memoryview(arr.reshape(-1).view(np.uint8))
    for lo in range(0, len(view), CHUNK_BYTES):
        yield view[lo : lo + CHUNK_BYTES]


def _put_tensor(put, arr, dtype):
    """Pass put the bytes the file stores for the C-contiguous array arr in
    dtype, in consecutive pieces of at most CHUNK_BYTES: views of arr's
    memory where it is in dtype, else each piece converted into one buffer,
    which is freed on return."""
    if arr.dtype == dtype:
        for chunk in _byte_chunks(arr):
            put(chunk)
        return
    flat = arr.reshape(-1)
    step = CHUNK_BYTES // dtype.itemsize
    buf = np.empty(min(flat.size, step), dtype)
    for lo in range(0, flat.size, step):
        part = buf[: min(step, flat.size - lo)]
        np.copyto(part, flat[lo : lo + len(part)], casting="unsafe")
        put(memoryview(part.view(np.uint8)))


def _put_stored(put, stored, dtype):
    """Pass put the bytes the file stores for the StoredTensor stored in
    dtype, read from the file it was loaded from CHUNK_BYTES at a time into
    one buffer and converted as _put_tensor converts an array. The bytes
    read also go through a copy of the checksum the load had before them;
    unless they take it to the digest the load had after them, they are not
    the bytes that were checked, and CheckpointError is raised once they
    are all put."""
    n_bytes = math.prod(stored.shape) * stored.dtype.itemsize
    buf = bytearray(min(n_bytes, CHUNK_BYTES))
    digest = stored.before.copy()
    fh = stored.file.fh
    fh.seek(stored.offset)
    for lo in range(0, n_bytes, CHUNK_BYTES):
        part = memoryview(buf)[: min(CHUNK_BYTES, n_bytes - lo)]
        if fh.readinto(part) != len(part):  # the file shrank since it was checked
            raise stored.file.changed()
        digest.update(part)
        _put_tensor(put, np.frombuffer(part, stored.dtype), dtype)
    if digest.digest() != stored.after:
        raise stored.file.changed()


def _replace_file(path, write):
    """Call write with a binary file that then becomes the file at path: it
    is written beside path and renamed over it, so a write that raises
    leaves no file of its own and any file at path as it was. The new file
    keeps the mode of the file it replaces, as a write in place would. A
    path that exists and is not a regular file (a device, a pipe) is
    written in place; a symbolic link is followed."""
    given, path = path, os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            write(fh)
        return
    temp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        # the mode a new file at path would get
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = given  # a fault of the directory: name the output
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def save_checkpoint(path, config, tensors, float32=()):
    """Write config (dict of str->str-able) and named float arrays.

    A tensor named in float32 is stored as little-endian f32; any other
    tensor as f32 or f64 where its array is one of them, else as f64. In
    place of an array a tensor may be a StoredTensor, whose bytes are
    copied from the file it was loaded from and hashed as they are copied:
    where they are not the bytes the load checked (the file changed since),
    the save raises CheckpointError before the file is put at path, so a
    checksum it writes certifies only bytes that were checked.
    Every entry is encoded and checked before the file is written. Then the
    header and each tensor go to the file and the checksum CHUNK_BYTES at a
    time, from the array's own buffer, converted or copied one chunk at a
    time: beside its inputs, saving holds at most two chunks and copies only
    tensors that are not C-contiguous. The file is written beside path and
    renamed into place (_replace_file), so a refused or failed save leaves
    any file at path as it was, and the file it copies from may be path.
    """
    config_bytes = config_to_text(config).encode("utf-8")
    entries = []
    for name in sorted(tensors):
        arr = tensors[name]
        if not isinstance(arr, StoredTensor):
            arr = np.ascontiguousarray(arr)  # stores rank 0 as rank 1
        if name in float32:
            dtype = np.dtype("<f4")
        elif arr.dtype in _DTYPE_TAGS:
            dtype = arr.dtype.newbyteorder("<")
        else:
            dtype = np.dtype("<f8")
        name_bytes = name.encode("utf-8")
        rank = len(arr.shape)
        header = struct.pack(f"<I{len(name_bytes)}sI{rank}IB", len(name_bytes),
                             name_bytes, rank, *arr.shape, _DTYPE_TAGS[dtype])
        entries.append((header, arr, dtype))

    def write(fh):
        digest = hashlib.sha256()

        def put(data):
            fh.write(data)
            digest.update(data)

        put(MAGIC + struct.pack("<HI", FORMAT_VERSION, len(config_bytes)))
        put(config_bytes)
        put(struct.pack("<I", len(entries)))
        for header, arr, dtype in entries:
            put(header)
            if isinstance(arr, StoredTensor):
                _put_stored(put, arr, dtype)
            else:
                _put_tensor(put, arr, dtype)
        fh.write(digest.digest()[:CHECKSUM_BYTES])

    _replace_file(path, write)


class _LoadedFile:
    """A checkpoint file that load_checkpoint read tensors of by rows, held
    open for save_checkpoint to copy them from. It holds its own descriptor,
    so it stays the file that was loaded where its path is replaced or
    removed, and it is closed once nothing refers to it."""

    def __init__(self, fh, path):
        self.path = path
        self.fh = os.fdopen(os.dup(fh.fileno()), "rb")
        weakref.finalize(self, self.fh.close)

    def changed(self):
        return CheckpointError(f"{self.path} changed since it was loaded")


class _PayloadReader:
    """Reads the payload of an open checkpoint (every byte before the
    checksum) in order, feeding each byte to the running checksum. A read
    that would pass the end of the payload raises _Malformed before
    anything is read or allocated for it."""

    def __init__(self, fh, size, loaded=None):
        self.fh, self.left, self.loaded = fh, size, loaded
        self.digest = hashlib.sha256()

    def _check_fits(self, n, what):
        if n > self.left:
            raise _Malformed(f"truncated {what}")

    def read(self, n, what):
        self._check_fits(n, what)
        self.left -= n
        data = self.fh.read(n)
        self.digest.update(data)
        if len(data) != n:  # the file shrank while being read
            raise _Malformed(f"truncated {what}")
        return data

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n, what):
        try:
            return self.read(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise _Malformed(f"{what} is not valid UTF-8") from None

    def _read_into(self, part):
        """Fill the byte view part from the payload, through the checksum."""
        got = self.fh.readinto(part)
        self.digest.update(part[:got])
        if got != len(part):
            raise _Malformed("truncated tensor data")

    def tensor(self, shape, dtype, rows=None):
        """The next tensor of the payload, of shape and dtype: a new array
        of it, or, given rows (sorted indices along its first axis), a
        SelectedRows whose array holds those rows alone, and whose stored
        tensor is in the _LoadedFile the reader was given, if any. A tensor
        read by rows passes through the checksum and the finiteness check a
        chunk of whole rows at a time (at most CHUNK_BYTES, or one row where
        a row is larger), and indices beyond its rows are dropped."""
        n_bytes = math.prod(shape) * dtype.itemsize
        self._check_fits(n_bytes, "tensor data")
        n_rows, row_shape = (shape[0], shape[1:]) if shape else (1, ())
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64).reshape(-1)
            rows = rows[rows < n_rows]
            row_bytes = n_bytes // n_rows if n_rows else 0
            step = max(1, CHUNK_BYTES // max(row_bytes, 1))
        try:
            # a selection is refused where the whole tensor is: a tensor
            # with no values is allocated whole, which takes no memory, and
            # otherwise the buffer and the selection, of its rank and of at
            # most its rows, fail only where it does (NumPy before 2.0
            # allows 32 dimensions, and NumPy leaves zero dimensions out of
            # its size check)
            if rows is None or not n_bytes:
                arr = np.empty(shape, dtype)
            if rows is not None:
                buf = np.empty((min(step, n_rows), *row_shape), dtype)
                arr = np.empty((len(rows), *row_shape), dtype)
        except ValueError:
            raise _Malformed(f"tensor rank {len(shape)} is not supported") from None
        self.left -= n_bytes
        if rows is None:
            for part in _byte_chunks(arr):
                self._read_into(part)
            return arr
        offset, before = self.fh.tell(), self.digest.copy()
        finite = True
        for lo in range(0, n_rows, step):
            part = buf[: min(step, n_rows - lo)]
            self._read_into(memoryview(part.reshape(-1).view(np.uint8)))
            finite = finite and bool(np.isfinite(part).all())
            first, end = np.searchsorted(rows, (lo, lo + len(part)))
            arr[first:end] = part[rows[first:end] - lo]
        stored = (None if self.loaded is None else StoredTensor(
            self.loaded, offset, shape, dtype, before,
            self.digest.copy().digest()))
        return SelectedRows(shape, finite, rows, arr, stored)

    def checksum(self):
        """The checksum of the whole payload, reading (CHUNK_BYTES at a
        time into one buffer) whatever of it is still unread."""
        buf = memoryview(bytearray(min(self.left, CHUNK_BYTES)))
        while self.left:
            got = self.fh.readinto(buf[: min(self.left, len(buf))])
            if not got:
                break
            self.digest.update(buf[:got])
            self.left -= got
        return self.digest.digest()[:CHECKSUM_BYTES]


def _read_payload(reader, select):
    if reader.read(len(MAGIC), "header") != MAGIC:
        raise _Malformed("bad magic bytes")
    (version,) = reader.unpack("<H", "header")
    if version != FORMAT_VERSION:
        raise _Malformed(
            f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    (config_len,) = reader.unpack("<I", "header")
    config = text_to_config(reader.text(config_len, "config block"),
                            error=_Malformed)
    rows_of = (lambda name: None) if select is None else select(config)
    (count,) = reader.unpack("<I", "header")
    tensors = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<I", "tensor header")
        name = reader.text(name_len, "tensor name")
        (rank,) = reader.unpack("<I", "tensor header")
        if rank > MAX_RANK:
            raise _Malformed(f"tensor rank {rank} is not supported")
        shape = struct.unpack(f"<{rank}I", reader.read(4 * rank, "tensor shape"))
        (tag,) = reader.unpack("<B", "tensor header")
        if tag not in _TAG_DTYPES:
            raise _Malformed(f"unknown dtype tag {tag}")
        tensors[name] = reader.tensor(shape, _TAG_DTYPES[tag], rows_of(name))
    if reader.left:
        raise _Malformed("trailing bytes after tensor section")
    return config, tensors


def load_checkpoint(path, select=None):
    """Read a checkpoint; returns (config dict, dict of name -> array).

    Streams the file once, reading each tensor straight into its array and
    hashing as it goes, so loading holds the tensors and no copy of them. A
    tensor is allocated only after its bytes are known to fit in what is
    left of the file. The checksum decides first: a file that fails it
    raises "checksum mismatch" whatever else is wrong with it, and only a
    file that passes it gets a structural error. A file that cannot seek
    (a pipe) is read whole into memory first, as its size is known only
    then.

    select, if given, is called with the config once it is read and returns
    a function of a tensor's name: None reads the tensor whole, and sorted
    row indices (along its first axis; none at all, say) read it by rows.
    Such a tensor passes through the checksum a chunk at a time, is checked
    as any other, and is returned as a SelectedRows that holds those rows
    alone, and, unless the file is read from a pipe, the StoredTensor that
    save_checkpoint copies the whole tensor from.
    """
    with open(path, "rb") as fh:
        loaded = None
        if not fh.seekable():  # a pipe: its size is known once it is read
            fh = io.BytesIO(fh.read())
        elif select is not None:
            loaded = _LoadedFile(fh, path)
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        if size < len(MAGIC) + 2 + CHECKSUM_BYTES:
            raise CheckpointError("file too short to be a checkpoint")
        reader = _PayloadReader(fh, size - CHECKSUM_BYTES, loaded)
        fault = None
        try:
            result = _read_payload(reader, select)
        except _Malformed as exc:
            fault = str(exc)
        if reader.checksum() != fh.read(CHECKSUM_BYTES):
            raise CheckpointError("checksum mismatch: file is corrupt")
    if fault is not None:
        raise CheckpointError(fault)
    return result
