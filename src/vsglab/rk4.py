"""vsglab's compiled C code, built into one library and loaded with ctypes: the RK4
kernel of `vsglab.sim` (`rk4.c`) and the table body codec of `vsglab.tables`
(`tables.c`).

The system C compiler `cc` builds the library the first time a process asks for
it, not at import, into `CACHE_DIR` under a name that carries the sha256 of the
sources and of the build command's flags; every later process loads that file.
Each build writes a temporary file in `CACHE_DIR` and renames it into place, so
threads or processes that build at the same time, such as `paper-repro`'s CVSG
stage on its worker thread beside its AVSG one on a cold cache, or two CLI runs at
once, each load a whole library and leave one.
A missing or failing compiler raises `KernelBuildError`.

The index constants below name the slots of the kernel's arrays, as `rk4.c`
declares them.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name) for name in ("rk4.c", "tables.c"))
CACHE_DIR = Path(__file__).parent / "__pycache__"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-lm")

# slots of the kernel's arrays (rk4.c): state, parameters, row columns, positions
Y_DELTA, Y_OMEGA, Y_V, Y_PF, Y_QF = range(5)
PAR_H, PAR_VG, PAR_W0, PAR_WC, PAR_X, PAR_P_REF, PAR_Q_REF, PAR_T_EVENT = range(8)
ROW_R, ROW_L, ROW_R_EST, ROW_L_EST, ROW_DP, ROW_KIP, ROW_DQ, ROW_KIQ = range(8)
IX_K, IX_SAMPLED, IX_OUT_ROW, IX_WIN_LEN, IX_N_STEPS, IX_DEC_OUT, IX_DEC_EST, IX_WIN_CAP \
    = range(8)
# what a run stopped at
STOP_END, STOP_EVENT, STOP_WINDOW, FAIL_NON_FINITE = range(4)


class KernelBuildError(RuntimeError):
    """The C compiler is missing or failed to build the library."""


def build() -> Path:
    """The shared library in `CACHE_DIR`, compiled there first if absent."""
    # imported here, not at the top, so that `import vsglab` does not pay for them
    import hashlib
    import shlex
    import subprocess
    import tempfile

    digest = hashlib.sha256(" ".join(FLAGS).encode())
    for source in SOURCES:
        digest.update(f"\0{source.name}\0".encode() + source.read_bytes())
    lib = CACHE_DIR / f"vsglab-{digest.hexdigest()}.so"
    if lib.exists():
        return lib
    CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="vsglab-", suffix=".so.tmp", dir=CACHE_DIR)
    os.close(fd)
    cmd = ["cc", "-o", tmp, *map(str, SOURCES), *FLAGS]
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
def library():
    """The loaded library, its entry points typed: `vsg_rk4_run(y, par, row, ix, out,
    win)`, each argument the address of a C-contiguous float64 (`ix`: int64) array;
    `vsg_window_waveforms(n, len, t, ph, w0, vg, out)`, which writes the (n, 2 len)
    v-then-i samples of the n (delta, V, R, X) rows of `ph` at the `len` times `t`
    into `out`; and `tables.c`'s `vsg_table_write(fd, n_rows, n_cols, spec, ryu, cap)`,
    which formats the table body through one buffer of `cap` bytes, and
    `vsg_table_read(fd, start, n_cols, out, max_rows, pow5, cap, err, text)`, which
    parses it one row at a time from a stdio buffer of `cap` bytes, from byte `start` to
    the end of the file, with `pow5` Eisel–Lemire's power-of-5 table."""
    import ctypes

    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    lib = ctypes.CDLL(str(build()))
    for name, restype, argtypes in (
            ("vsg_rk4_run", ctypes.c_int, [ptr] * 6),
            ("vsg_window_waveforms", None, [i64, i64, ptr, ptr, f64, f64, ptr]),
            ("vsg_table_write", ctypes.c_int, [ctypes.c_int, i64, i64, ptr, ptr, i64]),
            ("vsg_table_read", i64, [ctypes.c_int, i64, i64, ptr, i64, ptr, i64, ptr, ptr])):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib
