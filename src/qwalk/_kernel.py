"""Loader for the compiled event loop in ``_kernel.c``.

``network.run`` sends particles through this kernel when it loads and the
stream is a plain ``RngStream``; the kernel reproduces the Python loop
(``network._loop``, which calls the core functions) bit for bit.  The
library is built once per machine and per source with the C compiler
``cc``: the file is keyed by the sha256 of the C source and the compile
command, lives in ``$XDG_CACHE_HOME/qwalk`` (default ``~/.cache/qwalk``),
and is written to a temporary file first and moved into place, so
processes building it at the same time do not clash.
Nothing happens at ``import qwalk``: the first ``run`` loads the library.
When it cannot be built or loaded, one ``qwalk:`` line on stderr says so,
once per process, and runs use the Python loop.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

from .core import SOURCE_MESSAGE, derive_seed, _untapped, _vanished
from .network import _BS, _PBS, _V, _emitted

SOURCE = Path(__file__).with_name("_kernel.c")
#: the compile command, less its output and input files.  The kernel's
#: doubles are CPython's only under these flags: -ffp-contract=off fuses no
#: product into an FMA (CPython's order, and sq()'s exact residual),
#: -fno-builtin-pow keeps pow(x, 2.0) a libm call instead of x * x, and
#: -fno-math-errno lets sqrt compile to one instruction, which returns the
#: same correctly rounded double without the errno branch.  No flag that
#: reorders or approximates float arithmetic (-ffast-math and its parts)
#: may be added.
COMPILE = ("cc", "-O2", "-ffp-contract=off", "-fno-builtin-pow",
           "-fno-math-errno", "-shared", "-fPIC")

# codes shared with _kernel.c; the cases DETECTOR, BS and PBS are the
# network's kinds
_BS1, _SPLIT, _MERGE = 3, 4, 5
_NONE, _ABSORB = -1, -2
_HADAMARD, _PHASE = 1, 2
_VANISHED, _UNTAPPED, _NO_MEMORY = 1, 2, 3


def library_path() -> Path:
    """The cached library for this source and command, compiled if missing."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(COMPILE).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    path = cache / "qwalk" / f"_kernel-{key.hexdigest()[:20]}.so"
    if not path.exists():
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


@functools.cache
def load():
    """The kernel's ``qwalk_run``, or None (reported once) if it cannot be had."""
    try:
        fn = ctypes.CDLL(str(library_path())).qwalk_run
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"qwalk: compiled event loop unavailable ({exc}); "
              "using the Python loop", file=sys.stderr)
        return None
    # the arrays go in as the addresses of array.array buffers
    fn.argtypes = ((ctypes.c_int, ctypes.c_longlong, ctypes.c_int)
                   + 11 * (ctypes.c_void_p,)
                   + (ctypes.c_int, ctypes.c_int) + 5 * (ctypes.c_void_p,))
    fn.restype = ctypes.c_int
    return fn


def _zeros(typecode: str, n: int) -> array:
    return array(typecode, [0]) * n


def cases(plan) -> list[int]:
    """The C case of each unit of a ``network._plan``, -1 for a stateless one.

    A splitter whose messages have dead halves (``plan.live``) gets a case
    that skips them; every term it skips is a +0.0 square or a ±0 register,
    so it computes the same doubles as ``adaptive_update`` and
    ``bs_route``/``pbs_route``:

    - ``_BS1``: a beam splitter that no v half reaches; it updates and
      routes the h half alone.
    - ``_MERGE``: a PBS whose out-port 1 is dead (h only on in-port 0, v only
      on in-port 1).  Its p1 is +0.0, so p0/total is exactly 1.0 and port 0
      always wins.  It counts the hop but draws no number (the Python loop
      draws one and discards it); no other unit reads its stream.
    - ``_SPLIT``: a PBS that nothing reaches on in-port 1.  z0 is (z0h, 0)
      and z1 is (0, z1v).

    Any other splitter keeps its kind, ``_BS`` or ``_PBS``, and a detector
    its kind, 0.
    """
    case = []
    for k, (in0, in1) in zip(plan.kind, plan.live):
        if k == _BS and not (in0 | in1) & _V:
            k = _BS1
        elif k == _PBS:
            if not _emitted(_PBS, in0, in1)[1]:
                k = _MERGE
            elif not in1:
                k = _SPLIT
        case.append(-1 if k is None else k)
    return case


def _marshal(plan) -> tuple:
    """The arrays of a ``network._plan`` that the kernel reads and no run changes.

    In the order of ``qwalk_run``'s inputs: the source message, per unit
    the C case (``cases``), detector slot and gamma, per edge the dst,
    dst_port, tag code (_NONE or the t2 row; a run overlays _ABSORB on a
    copy) and transform code, and the phase factors.
    """
    slot = {x: i for i, x in enumerate(plan.sites)}
    row = {x2: r for r, x2 in enumerate(plan.t2_sites)}
    xcode, factor = _zeros("i", len(plan.xform)), _zeros("d", 2 * len(plan.xform))
    for e, f in enumerate(plan.xform):
        if type(f) is complex:
            xcode[e] = _PHASE
            factor[2 * e], factor[2 * e + 1] = f.real, f.imag
        elif f is not None:
            xcode[e] = _HADAMARD
    h, v = SOURCE_MESSAGE
    return (array("d", (h.real, h.imag, v.real, v.imag)),
            array("i", cases(plan) + [-1]),
            array("i", [-1 if x is None else slot[x] for x in plan.site] + [-1]),
            array("d", [0.0 if g is None else g for g in plan.gamma] + [0.0]),
            array("i", plan.dst), array("i", plan.dst_port),
            array("i", [_NONE if t is None else row[t] for t in plan.tag]),
            xcode, factor)


def run(fn, plan, absorbed: set, state: list, n_particles: int, seed: int,
        counts: dict, t2: dict) -> tuple[int, list[int]]:
    """Send the particles through a ``network._plan`` with the kernel ``fn``.

    The arrays that do not change between runs are marshalled once and
    kept on the ``plan``; the registers (read from ``state``, the run's
    ``AdaptiveState`` of each adaptive unit or None), the seeds (of the
    units that draw: a merge gets none) and the tags of the ``absorbed``
    edges are made for each run.
    Adds to ``counts`` and, if it is not empty, to the t2 table ``t2`` in
    place, and leaves each unit's final registers in its ``state``.
    Adaptive unit j draws from the stream ``RngStream(seed).derive(j)``
    would give (a merge draws nothing).  Returns the removed tally and each
    unit's arrivals, the particles that reached it (the Python loop draws
    once per arrival), 0 for a stateless unit.
    """
    if plan.arrays is None:
        plan.arrays = _marshal(plan)
    source, kind, slot, gamma, dst, dst_port, tag, xcode, factor = plan.arrays
    n_sites = len(plan.sites)
    n = len(state) + 1  # and the sink that unwired ports lead to
    if absorbed:
        tag = array("i", tag)
        for e in absorbed:
            tag[e] = _ABSORB
    reg, seeds = _zeros("d", 10 * n), _zeros("Q", n)
    for j, st in enumerate(state):
        if st is not None:
            reg[10 * j:10 * j + 10] = array("d", (
                st.w0, st.w1, st.y0h.real, st.y0h.imag, st.y0v.real,
                st.y0v.imag, st.y1h.real, st.y1h.imag, st.y1v.real, st.y1v.imag))
            if kind[j] != _MERGE:  # a merge's stream is never seeded
                seeds[j] = derive_seed(seed, j)
    out_counts = _zeros("q", n_sites)
    out_t2 = _zeros("q", len(t2) * n_sites)
    removed, arrivals, err = _zeros("q", 1), _zeros("q", n), _zeros("d", 2)
    inputs = (source, kind, slot, gamma, seeds, reg, dst, dst_port, tag, xcode,
              factor)
    outputs = (out_counts, out_t2, removed, arrivals, err)
    status = fn(n, n_particles, plan.start, *(a.buffer_info()[0] for a in inputs),
                1 if t2 else 0, n_sites, *(a.buffer_info()[0] for a in outputs))
    for j, st in enumerate(state):
        if st is not None:
            r = reg[10 * j:10 * j + 10]
            st.w0, st.w1 = r[0], r[1]
            st.y0h, st.y0v = complex(r[2], r[3]), complex(r[4], r[5])
            st.y1h, st.y1v = complex(r[6], r[7]), complex(r[8], r[9])
    if status == _VANISHED:
        raise _vanished(err[0], err[1])
    if status == _UNTAPPED:
        raise _untapped()
    if status == _NO_MEMORY:
        raise MemoryError("compiled event loop: out of memory")
    for x, c in zip(plan.sites, out_counts):
        counts[x] += c
    for r, x2 in enumerate(t2):
        for i, x in enumerate(plan.sites):
            t2[x2][x] += out_t2[r * n_sites + i]
    return removed[0], arrivals[:n - 1].tolist()
