"""The kernel's float arithmetic against CPython's, bit for bit."""
import ctypes
import math
import random
import struct
import subprocess
from array import array

import pytest

from qwalk import _kernel, network
from qwalk.core import _normalized
from test_core import norm
from test_network import splitter_registers

# exposes static functions of the kernel over arrays, and counts any call of
# libm's pow in pow_calls; the values and the kernel's own interface stay as
# they are
HARNESS = """\
#include <math.h>

long pow_calls;

static double counted_pow(double x, double y)
{{
    pow_calls++;
    return pow(x, y);
}}

#define pow counted_pow
#include "{source}"

void sq_array(const double *x, double *out, long n)
{{
    for (long i = 0; i < n; i++)
        out[i] = sq(x[i]);
}}

/* per item: zh, zv and p in, the normalized (h, v) out */
void normalized_array(const double *in, double *out, long n)
{{
    for (long i = 0; i < n; i++) {{
        const double *z = in + 5 * i;
        cpx zh = {{z[0], z[1]}}, zv = {{z[2], z[3]}}, h, v;
        normalized(zh, zv, z[4], &h, &v);
        out[4 * i] = h.re;
        out[4 * i + 1] = h.im;
        out[4 * i + 2] = v.re;
        out[4 * i + 3] = v.im;
    }}
}}

/* k streams seeded as qwalk_run seeds them, L at a time; out[q * draws + i]
   is the stream q's (i + 1)-th random() */
const int lanes = L;

int first_draws(const uint64_t *seed, double *out, long k, long draws)
{{
    mt_state *mt = malloc((size_t)k * sizeof *mt);
    if (mt == NULL)
        return -1;
    seed_streams(mt, seed, (int)k);
    for (long q = 0; q < k; q++)
        for (long i = 0; i < draws; i++)
            out[q * draws + i] = genrand_res53(&mt[q]);
    free(mt);
    return 0;
}}

/* per item: z and p in, the normalized z out */
void normalized_half_array(const double *in, double *out, long n)
{{
    for (long i = 0; i < n; i++) {{
        cpx z = {{in[3 * i], in[3 * i + 1]}};
        z = normalized_half(z, in[3 * i + 2]);
        out[2 * i] = z.re;
        out[2 * i + 1] = z.im;
    }}
}}
"""


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("harness")
    c_file, library = tmp / "harness.c", tmp / "harness.so"
    c_file.write_text(HARNESS.format(source=_kernel.SOURCE.resolve()))
    subprocess.run([*_kernel.COMPILE, "-o", str(library), str(c_file), "-lm"],
                   check=True, stdin=subprocess.DEVNULL, capture_output=True,
                   timeout=300)
    lib = ctypes.CDLL(str(library))
    for fn in (lib.sq_array, lib.normalized_array, lib.normalized_half_array):
        fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long)
        fn.restype = None
    lib.first_draws.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                                ctypes.c_long)
    lib.first_draws.restype = ctypes.c_int
    kernel = _kernel.load()
    assert kernel is not None, "the compiled kernel did not load"
    lib.qwalk_run.argtypes, lib.qwalk_run.restype = kernel.argtypes, kernel.restype
    return lib


def pow_calls(harness) -> ctypes.c_long:
    return ctypes.c_long.in_dll(harness, "pow_calls")


def call(fn, xs: list[float], out_per_item: int, in_per_item: int = 1) -> array:
    n = len(xs) // in_per_item
    xs, out = array("d", xs), array("d", [0.0]) * (n * out_per_item)
    fn(xs.buffer_info()[0], out.buffer_info()[0], n)
    return out


def square_inputs() -> list[float]:
    rng = random.Random(20201118)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(400_000)]
    xs += [rng.uniform(0.0, 1e-3) for _ in range(400_000)]
    # squares around 2**-900 and 2**1000
    for edge in (2.0 ** -450, 2.0 ** 500):
        xs += [s * edge * rng.uniform(0.5, 2.0) for s in (1, -1)
               for _ in range(50_000)]
        xs += [edge, -edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    # powers of two, their neighbours, and squares that overflow
    for k in range(-1074, 1024):
        p = 2.0 ** k
        xs += [p, -p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    xs += [rng.uniform(2.0 ** 511, 2.0 ** 600) for _ in range(1000)]
    # subnormals, zeros, infinities, NaN
    xs += [struct.unpack("<d", struct.pack("<Q", rng.randrange(1, 1 << 52)))[0]
           for _ in range(10_000)]
    xs += [0.0, -0.0, math.inf, -math.inf, math.nan,
           math.ulp(0.0), -math.ulp(0.0), math.ulp(1.0), 1.0, -1.0]
    return xs


def assert_same_bits(xs: list, expected: list[float], got: array) -> None:
    want = struct.pack(f"<{len(expected)}d", *expected)
    if got.tobytes() != want:
        bad = [(x, e.hex(), g.hex()) for x, e, g in zip(xs, expected, got)
               if struct.pack("<d", e) != struct.pack("<d", g)]
        raise AssertionError(f"{len(bad)} mismatches (input, Python, kernel), "
                             f"first: {bad[:5]}")


def test_kernel_square_is_pythons_float_square(harness):
    # the core functions square as x * x, one IEEE product
    xs = square_inputs()
    expected = [x * x for x in xs]
    assert len(xs) >= 1_000_000
    assert_same_bits([x.hex() for x in xs], expected,
                     call(harness.sq_array, xs, 1))


@pytest.mark.parametrize("build", [
    lambda: network.build_robens(0.95),
    lambda: network.build_jeong(12, math.pi / 2, -math.pi / 2, 0.98),
], ids=["robens", "mesh12"])
def test_kernel_runs_call_no_pow(harness, build):
    # a square is one product, so the source has no pow and a run calls
    # none; the run through the counting harness is the loaded kernel's
    # run, counts and registers alike
    assert "pow(" not in _kernel.SOURCE.read_text()
    calls, n = pow_calls(harness), 2000
    calls.value = 0
    outcomes = []
    for fn in (harness.qwalk_run, _kernel.load()):
        net = build()
        plan = network._plan(net)
        reg = plan.reg[:]
        counts = array("q", [0]) * len(plan.sites)
        removed = _kernel.run(fn, plan, plan.tag, reg, n, 2015, counts,
                              array("q"))
        outcomes.append((dict(zip(plan.sites, counts)), removed,
                         splitter_registers(net, reg)))
    assert calls.value == 0
    assert outcomes[0] == outcomes[1]
    counts, removed, _ = outcomes[0]
    assert sum(counts.values()) + removed == n


def test_kernel_normalization_is_cores(harness):
    # messages of unit norm scaled down until p nears and leaves the
    # normal range, where core._normalized sums p again
    rng = random.Random(2005)
    items, inputs, expected = [], [], []
    for scale in (1.0, 2.0 ** -500, 2.0 ** -511, 2.0 ** -520, 2.0 ** -535):
        for _ in range(200):
            z = [rng.gauss(0.0, 1.0) for _ in range(4)]
            r = math.sqrt(sum(c * c for c in z))
            zh, zv = complex(z[0], z[1]) * (scale / r), complex(z[2], z[3]) * (scale / r)
            p = zh.real ** 2 + zh.imag ** 2 + zv.real ** 2 + zv.imag ** 2
            if p == 0.0:
                continue
            m = _normalized(zh.real, zh.imag, zv.real, zv.imag, p)
            assert abs(norm(m) - 1.0) < 1e-12
            items.append((zh, zv))
            inputs += [zh.real, zh.imag, zv.real, zv.imag, p]
            expected += [m.c_h.real, m.c_h.imag, m.c_v.real, m.c_v.imag]
    assert sum(p < 2.0 ** -1022 for p in inputs[4::5]) >= 200
    got = call(harness.normalized_array, inputs, 4, 5)
    assert_same_bits([z for z in items for _ in range(4)], expected, got)


def test_kernel_one_half_normalization_is_cores(harness):
    # the splitter cases with a dead half normalize the live one as
    # core._normalized does a message whose other half is zero
    rng = random.Random(2006)
    inputs, expected = [], []
    for scale in (1.0, 2.0 ** -500, 2.0 ** -511, 2.0 ** -520, 2.0 ** -535):
        for _ in range(200):
            z = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            z *= scale / abs(z)
            p = z.real ** 2 + z.imag ** 2
            if p == 0.0:
                continue
            h = _normalized(z.real, z.imag, 0.0, 0.0, p).c_h
            inputs += [z.real, z.imag, p]
            expected += [h.real, h.imag]
    assert sum(p < 2.0 ** -1022 for p in inputs[2::3]) >= 200
    got = call(harness.normalized_half_array, inputs, 2, 3)
    assert_same_bits([z for z in inputs[0::3] for _ in range(2)], expected, got)


#: one-word keys (below 2**32) and two-word keys, at their edges
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
LANES = 16  # the harness's lanes, checked against the kernel's L below
#: 2 100 words: three whole tempered blocks of 624 words and part of a fourth
DRAWS = 1050


@pytest.mark.parametrize("k", [*range(1, LANES + 1), LANES + 3, 2 * LANES + 3])
def test_lockstep_seeding_is_pythons(harness, k):
    # every edge seed in every lane position a batch of k streams has, so
    # one-word and two-word keys share the lanes of one group; the last two
    # batches span two and three groups, the last one partly filled.  Each
    # stream's draws refill its block four times
    assert ctypes.c_int.in_dll(harness, "lanes").value == LANES
    for shift in range(len(EDGE_SEEDS)):
        seeds = [EDGE_SEEDS[(q + shift) % len(EDGE_SEEDS)] for q in range(k)]
        keys, got = array("Q", seeds), array("d", [0.0]) * (k * DRAWS)
        assert harness.first_draws(keys.buffer_info()[0], got.buffer_info()[0],
                                   k, DRAWS) == 0
        expected = []
        for seed in seeds:
            draw = random.Random(seed).random
            expected += [draw() for _ in range(DRAWS)]
        assert_same_bits([s for s in seeds for _ in range(DRAWS)], expected, got)
