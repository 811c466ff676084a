"""Loader for the compiled event loop in ``_kernel.c``.

``network.run`` sends particles through this kernel when it loads and the
stream is a plain ``RngStream``; the kernel reproduces the Python loop
(``network._loop``, which calls the core functions) bit for bit.  Both
loops read one set of tables, the ``array``s of ``network._plan`` in the
codes ``network.py`` defines, which the kernel takes as they are.  The
library is built once per machine and per source with the C compiler
``cc``: the file is keyed by the blake2b of the C source and the compile
command (the builtin blake2b that ``core`` seeds with, so no process loads
``hashlib`` or OpenSSL), lives in ``$XDG_CACHE_HOME/qwalk`` (default
``~/.cache/qwalk``), and is written to a temporary file first and moved into
place, so processes building it at the same time do not clash.
Nothing happens at ``import qwalk``: the first ``run`` loads the library,
and threads that start their first runs together wait for that one load.
When it cannot be built or loaded, one ``qwalk:`` line on stderr says so,
once per process, and runs use the Python loop.  The compiler's modules,
``subprocess`` and ``tempfile``, are imported only on a cache miss, so a
process that finds the library cached never loads them.
"""
from __future__ import annotations

import ctypes
import functools
import os
import sys
import threading
from array import array
from pathlib import Path

from . import core

SOURCE = Path(__file__).with_name("_kernel.c")
#: the compile command, less its output and input files.  The kernel's
#: doubles are CPython's only under these flags: -ffp-contract=off fuses no
#: product into an FMA (CPython fuses none, not even in a * a + b * b), and
#: -fno-math-errno lets sqrt compile to one instruction, which returns the
#: same correctly rounded double without the errno branch.  -O3 only adds
#: vectorization, inlining and unrolling, which keep the order of every
#: float operation (GCC reassociates floats only under -ffast-math or
#: -fassociative-math); it vectorizes the kernel's twist and tempering
#: loops.  No flag that reorders or approximates float arithmetic
#: (-ffast-math and its parts) may be added.
COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared",
           "-fPIC")

# the return codes of qwalk_run; the tables' codes are network.py's
_VANISHED, _UNTAPPED, _NO_MEMORY, _NOT_UNIT = 1, 2, 3, 4


def library_path() -> Path:
    """The cached library for this source and command, compiled if missing."""
    key = core.blake2b(SOURCE.read_bytes())
    key.update("\0".join(COMPILE).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    path = cache / "qwalk" / f"_kernel-{key.hexdigest()[:20]}.so"
    if not path.exists():
        import subprocess  # only a cache miss runs the compiler
        import tempfile

        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            subprocess.run([*COMPILE, "-o", tmp, str(SOURCE), "-lm"], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True,
                           timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


_load_lock = threading.Lock()


@functools.cache
def _load():
    try:
        fn = ctypes.CDLL(str(library_path())).qwalk_run
    except Exception as exc:
        import subprocess  # imported already if the compiler ran

        if not isinstance(exc, (OSError, subprocess.SubprocessError)):
            raise
        print(f"qwalk: compiled event loop unavailable ({exc}); "
              "using the Python loop", file=sys.stderr)
        return None
    # the arrays go in as the addresses of array.array buffers
    fn.argtypes = ((ctypes.c_longlong, ctypes.c_int) + 14 * (ctypes.c_void_p,)
                   + 3 * (ctypes.c_int,) + 5 * (ctypes.c_void_p,))
    fn.restype = ctypes.c_int
    return fn


def load():
    """The kernel's ``qwalk_run``, or None (reported once) if it cannot be had.

    Threads that call it together wait for one load and share its outcome.
    """
    with _load_lock:  # functools.cache alone is no lock
        return _load()


load.cache_clear = _load.cache_clear  # the next call loads afresh


def _zeros(typecode: str, n: int) -> array:
    return array(typecode, [0]) * n


def run(fn, plan, tag: array, reg: array, n_particles: int, seed: int,
        counts: array, t2: array) -> int:
    """Send the particles through a ``network._plan``'s tables with the kernel ``fn``.

    The kernel reads the plan's arrays as they are, the run's edge tags
    ``tag`` and its registers ``reg`` (a copy of ``plan.reg``), which it
    updates in place, so they hold the final registers afterwards.  Adds
    to the slots of ``counts`` and, if it is not empty, of the t2 table
    ``t2`` in place.  Adaptive unit j draws the numbers
    ``RngStream(seed).derive(j)`` would give, except a merge, which draws
    none: the kernel's stream ``plan.stream[j]`` is seeded with
    ``core.derive_seed(seed, j)``, in the order of ``plan.drawing``.
    Each splitter runs its ``plan.case``: the general ``_BS`` or ``_PBS``,
    or one of the two dead-half cases the kernel keeps, ``_BS1`` and
    ``_MERGE``, each of which measured faster than the general case.
    Returns the removed tally.
    """
    # derive_seed is looked up on each run: a wrapper put back is not kept
    derive_seed = core.derive_seed
    seeds = array("Q", [derive_seed(seed, j) for j in plan.drawing])
    removed, where, err = _zeros("q", 1), _zeros("q", 2), _zeros("d", 2)
    inputs = (plan.source, plan.case, plan.slot, plan.rank, plan.stream,
              plan.gamma, plan.fixed, seeds, reg, plan.dst, plan.dst_port, tag,
              plan.xform, plan.factor)
    outputs = (counts, t2, removed, where, err)
    status = fn(n_particles, plan.start, *(a.buffer_info()[0] for a in inputs),
                1 if t2 else 0, len(plan.sites), len(seeds),
                *(a.buffer_info()[0] for a in outputs))
    if status == _VANISHED:
        j, particle = where
        raise core._vanished_at(plan.units[j], j, particle, n_particles,
                                err[0], err[1])
    if status == _UNTAPPED:
        raise core._untapped()
    if status == _NOT_UNIT:
        raise core._not_unit(err[0])
    if status == _NO_MEMORY:
        raise MemoryError("compiled event loop: out of memory")
    return removed[0]
