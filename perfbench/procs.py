"""Running program commands one at a time, and describing the machine.

Each command runs as its own process. Wall time is taken around the whole
process, peak RSS comes from the kernel's rusage of that process, and a
sampler thread reads the process's thread count while it runs.

A child's peak RSS also counts the memory of the process that started it
(Linux carries it over through fork and exec), and the benchmark itself
holds generated tables. So commands are started by a small launcher
process (`Launcher`, running this file with --serve) that is created
before the benchmark grows.
"""

import ctypes
import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class CommandResult:
    name: str
    argv: list
    wall_s: float
    peak_rss_mb: float
    max_threads: int
    returncode: int
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)  # failed output checks

    @property
    def ok(self):
        return self.returncode == 0 and not self.problems


def _read_threads(pid):
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def run_command(name, argv, env, cwd, timeout_s):
    """Run argv to completion; never raises for a failing command."""
    out_path = os.path.join(cwd, f".{name}.stdout")
    err_path = os.path.join(cwd, f".{name}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        max_threads = [0]
        done = threading.Event()

        def sample():
            while not done.wait(0.2):
                max_threads[0] = max(max_threads[0], _read_threads(proc.pid))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return CommandResult(
        name=name, argv=list(argv), wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0, max_threads=max_threads[0],
        returncode=proc.returncode, stdout=stdout, stderr=stderr,
    )


class Launcher:
    """A small child process that runs commands for the benchmark; use as a
    context manager so that it is stopped and waited for."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def run(self, name, argv, env, cwd, timeout_s):
        request = {"name": name, "argv": argv, "env": env, "cwd": cwd,
                   "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("command launcher exited")
        return CommandResult(**json.loads(reply))

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve():
    """Launcher loop: one JSON request per line in, one result per line out."""
    for line in sys.stdin:
        result = run_command(**json.loads(line))
        sys.stdout.write(json.dumps(dataclasses.asdict(result)) + "\n")
        sys.stdout.flush()


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older NumPy without mode="dicts"
        pass
    mem_kb = 0
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "ram_mb": round(mem_kb / 1024.0, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
