"""Slim helper process that starts and reaps the benchmark's CLI children.

At exec, Linux records the peak RSS of the address space being replaced in
the new program's ru_maxrss.  A child forked from the benchmark process
would therefore report at least the benchmark's own peak (numpy, the
references, the in-process traced run), hiding any child smaller than
that.  This helper imports only the standard library, so its children's
ru_maxrss is their own.

Protocol: one JSON request per line on the helper's stdin, one JSON reply
per line on its stdout.  The helper exits when its stdin closes.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def _serve() -> None:
    running: list[int] = []
    # SIGTERM from the client: kill the running child; the loop then ends at EOF.
    signal.signal(signal.SIGTERM, lambda *_: [_kill(pid) for pid in running])
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            running.append(proc.pid)
            timer = threading.Timer(req["timeout"], _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                running.clear()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall,
                 "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client side: owns the helper process for the life of a `with` block."""

    def __init__(self, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Spawner":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, exc_type, *_) -> None:
        proc, self._proc = self._proc, None
        if exc_type is not None:
            proc.terminate()
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        try:
            proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def run(self, argv: list[str], env: dict, cwd: str, timeout: float) -> dict:
        """Run argv to completion; returns code, stdout, stderr, wall, cpu, rss_mb."""
        paths = {name: os.path.join(self.tmpdir, f"child.{name}") for name in ("stdout", "stderr")}
        req = {"argv": argv, "env": env, "cwd": cwd, "timeout": timeout, **paths}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner helper exited")
        reply = json.loads(line)
        for name, path in paths.items():
            with open(path, "rb") as fh:
                reply[name] = fh.read().decode(errors="replace")
            os.unlink(path)
        reply["rss_mb"] = reply.pop("rss_kb") / 1024.0
        return reply


if __name__ == "__main__":
    _serve()
