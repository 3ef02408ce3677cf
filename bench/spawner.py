"""Runs the benchmark's child interpreters from a small helper process.

Linux charges a process's peak resident set with that of the process it
was forked from (the old address space's high-water mark carries across
exec), so a child forked from the benchmark, which holds numpy, scipy and
sphex, reports at least the benchmark's size.  The benchmark starts this
helper before it imports any of them and has the helper fork the
children, so a child's peak resident set is its own.

Protocol: one JSON request per line on stdin, [argv, env, cwd, out path,
err path, timeout seconds]; one JSON reply per line on stdout, [exit code,
peak resident set in KiB].  Closing stdin ends the helper.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading


def serve():
    for line in sys.stdin:
        argv, env, cwd, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            p = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=cwd)
            watchdog = threading.Timer(timeout, p.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps([p.returncode, usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


class Spawner:
    """The client: start the helper, run children through it, stop it."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, cwd):
        """Run a child to completion: (exit code, stdout, stderr, peak RSS KiB)."""
        with tempfile.NamedTemporaryFile(dir=cwd) as fo, \
                tempfile.NamedTemporaryFile(dir=cwd) as fe:
            self.proc.stdin.write(json.dumps(
                [argv, env, cwd, fo.name, fe.name, self.timeout]) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
            if not reply:
                raise RuntimeError("the child-spawning helper exited")
            code, rss_kb = json.loads(reply)
            return code, fo.read(), fe.read(), rss_kb

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
