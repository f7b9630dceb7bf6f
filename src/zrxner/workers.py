"""Child processes and BLAS threads.

`blas_threads` runs a block with the OpenBLAS that NumPy loaded on a given
number of threads. `Child` runs a function in a forked child process, which
sends the arrays the function returns home through a pipe: a small header
(each array's dtype and shape), then each array's bytes, which the parent
reads straight into its final arrays. Where the child fails, dies or cannot
be started, its result is None and the caller does that share itself, so
an error is the one a sequential run raises, raised in the caller.

Several processes each running a multi-threaded BLAS on a few cores run
far slower than one: on 2 vCPUs, two processes of 2 OpenBLAS threads each
took 5x the time of one. So parallel work runs one BLAS thread per process.
"""

import contextlib
import ctypes
import functools
import glob
import json
import os
import signal
import struct
import warnings

import numpy as np

_HEADER_LEN = struct.Struct("<q")  # byte length of a child's JSON header


@functools.cache
def _openblas_threads():
    """(set, get) of the thread count of NumPy's OpenBLAS through ctypes,
    or None where the library or the functions are missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            set_n = lib.scipy_openblas_set_num_threads64_
            get_n = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_n.argtypes, set_n.restype = [ctypes.c_int], None
        get_n.argtypes, get_n.restype = [], ctypes.c_int
        return set_n, get_n
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the block with NumPy's OpenBLAS on n threads, and restore the
    count in force before it after it. Yields True, or False where the
    thread-count functions are missing; the count is then left as it is."""
    funcs = _openblas_threads()
    if funcs is None:
        yield False
        return
    set_n, get_n = funcs
    before = get_n()
    set_n(n)
    try:
        yield True
    finally:
        set_n(before)


def numeric_environment():
    """The NumPy version, the BLAS build's name and version, and the BLAS
    thread count (None where it cannot be read)."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    funcs = _openblas_threads()
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": funcs[1]() if funcs else None,
    }


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _read_into(pipe, buf):
    """Fill buf, a bytes-like object, from pipe; False where the pipe ends
    first."""
    view = memoryview(buf)
    while view:
        got = pipe.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


class Child:
    """fn(*args), a list of NumPy arrays, computed in a forked child.

    The child inherits this process's memory copy-on-write, so fn may read
    anything the caller holds. A warning in the child fails it, so that the
    caller shows the warning when it does that share itself. Use a Child
    as a context manager: on exit the child is killed, if it still runs,
    and reaped, whatever the block raised.
    """

    def __init__(self, fn, *args):
        self._pid = None
        if not hasattr(os, "fork"):
            return
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a process with threads may
                # deadlock the child. The only other threads here are
                # OpenBLAS workers, and OpenBLAS shuts its pool down around a
                # fork; the child takes no lock that such a thread holds,
                # and leaves through os._exit.
                warnings.filterwarnings(
                    "ignore", r".*fork\(\) may lead to deadlocks",
                    DeprecationWarning)
                pid = os.fork()
        except OSError:  # no pipe or process to spare: the caller does it
            for fd in fds:
                os.close(fd)
            return
        if pid == 0:
            _serve(read_fd, write_fd, fn, args)
        os.close(write_fd)
        self._pid = pid
        self._pipe = open(read_fd, "rb", buffering=0)

    def result(self):
        """The arrays the child sent, or None where it failed, died or
        could not be started."""
        if self._pid is None:
            return None
        head = bytearray(_HEADER_LEN.size)
        if not _read_into(self._pipe, head):
            return None
        text = bytearray(_HEADER_LEN.unpack(head)[0])
        if not _read_into(self._pipe, text):
            return None
        arrays = [np.empty(shape, dtype) for dtype, shape in json.loads(text)]
        for array in arrays:
            if not _read_into(self._pipe, array.reshape(-1).view(np.uint8)):
                return None
        return arrays

    def close(self):
        if self._pid is None:
            return
        try:
            self._pipe.close()
        finally:
            os.kill(self._pid, signal.SIGKILL)  # a no-op where it has exited
            os.waitpid(self._pid, 0)
            self._pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(read_fd, write_fd, fn, args):
    """The child's whole life: compute fn(*args), send it, and exit."""
    code = 1
    try:
        os.close(read_fd)
        warnings.simplefilter("error")
        arrays = fn(*args)
        header = json.dumps([[a.dtype.str, a.shape] for a in arrays]).encode()
        with open(write_fd, "wb") as pipe:
            pipe.write(_HEADER_LEN.pack(len(header)) + header)
            for array in arrays:
                pipe.write(array)  # refuses an array that is not contiguous
        code = 0
    finally:
        # no exit handlers, and no flush of buffers copied from the parent
        os._exit(code)
