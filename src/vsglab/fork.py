"""Run two calls at once, one of them in a forked child process (POSIX `fork`)."""

from __future__ import annotations

import os
import pickle
import signal
import tempfile


def run_beside_fork(in_child, in_parent):
    """`(in_child(), in_parent())`, the first called in a forked child meanwhile.

    The child hands back its return value, or the exception it raised, through
    an unlinked temporary file it inherits, and the parent returns that value or
    raises that exception.  A file, not a pipe, so that the parent never holds
    the whole pickle beside the objects it rebuilds from it.  The child is
    always reaped, killed first if `in_parent` raises, and never returns into
    the caller's code.  It ends in `os._exit`, so it flushes no file object it
    inherited: whatever `in_child` writes to a file, it must flush itself.
    """
    with tempfile.TemporaryFile() as handoff:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    outcome = (True, in_child())
                except Exception as exc:
                    outcome = (False, exc)
                pickle.dump(outcome, handoff, pickle.HIGHEST_PROTOCOL)
                handoff.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            mine = in_parent()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"the forked child process exited with code {code}")
        handoff.seek(0)
        ok, value = pickle.load(handoff)
    if not ok:
        raise value
    return value, mine
