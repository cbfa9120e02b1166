"""The compiled RK4 kernel of `vsglab.sim`, built from `rk4.c` and loaded with ctypes.

The system C compiler `cc` builds the kernel the first time a process asks for
it, not at import, into `CACHE_DIR` under a name that carries the sha256 of the
source and of the build command's flags; every later process loads that file.
Each build writes a temporary file in `CACHE_DIR` and renames it into place, so
processes that build at the same time, such as `paper-repro`'s forked CVSG stage
beside its AVSG one on a cold cache, each load a whole library and leave one.
A missing or failing compiler raises `KernelBuildError`.

The index constants below name the slots of the kernel's arrays, as `rk4.c`
declares them.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("rk4.c")
CACHE_DIR = Path(__file__).parent / "__pycache__"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-lm")

# slots of the kernel's arrays (rk4.c): state, parameters, row columns, positions
Y_DELTA, Y_OMEGA, Y_V, Y_PF, Y_QF = range(5)
PAR_H, PAR_VG, PAR_W0, PAR_WC, PAR_X, PAR_P_REF, PAR_Q_REF, PAR_T_EVENT = range(8)
ROW_R, ROW_L, ROW_R_EST, ROW_L_EST, ROW_DP, ROW_KIP, ROW_DQ, ROW_KIQ = range(8)
IX_K, IX_SAMPLED, IX_OUT_ROW, IX_WIN_LEN, IX_N_STEPS, IX_DEC_OUT, IX_DEC_EST, IX_WIN_CAP \
    = range(8)
# what a run stopped at
STOP_END, STOP_EVENT, STOP_WINDOW, FAIL_STAGE_ANGLE, FAIL_NON_FINITE = range(5)


class KernelBuildError(RuntimeError):
    """The C compiler is missing or failed to build the kernel."""


def build() -> Path:
    """The kernel's shared library in `CACHE_DIR`, compiled there first if absent."""
    # imported here, not at the top, so that `import vsglab` does not pay for them
    import hashlib
    import shlex
    import subprocess
    import tempfile

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    lib = CACHE_DIR / f"rk4-{key}.so"
    if lib.exists():
        return lib
    CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="rk4-", suffix=".so.tmp", dir=CACHE_DIR)
    os.close(fd)
    cmd = ["cc", "-o", tmp, str(SOURCE), *FLAGS]
    try:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot run `{shlex.join(cmd)}`: {exc}") from None
        if done.returncode != 0:
            raise KernelBuildError(f"`{shlex.join(cmd)}` exited with code {done.returncode}:"
                                   f"\n{done.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.cache
def kernel():
    """The kernel's entry point `vsg_rk4_run(y, par, row, ix, out, win)`, each
    argument the address of a C-contiguous float64 (`ix`: int64) array."""
    import ctypes

    run = ctypes.CDLL(str(build())).vsg_rk4_run
    run.argtypes = [ctypes.c_void_p] * 6
    run.restype = ctypes.c_int
    return run
