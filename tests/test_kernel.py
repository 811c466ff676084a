"""The compiled event loop: its splitter cases, one build per source, a reported fallback."""
import ast
import ctypes
import inspect
import math
import os
import random
import re
import subprocess
import sys
import textwrap

import pytest

from qwalk import _kernel, core, network
from qwalk.cli import main
from qwalk.core import BeamSplitter, PolarizingBeamSplitter, RngStream
from qwalk.network import (_BS, _BS1, _MERGE, _NONE, _PBS, _fixed_point, _plan,
                           build_jeong, build_robens, run)
from test_network import (RUN_SHAPES, CountingRng, build_mixed, build_rejoined,
                          run_on_kernel, splice_hadamard, splitter_registers)

PHI1 = math.pi / 2
PHI2 = -math.pi / 2


def adaptive_kinds(net):
    """The kernel's case of each adaptive unit, keyed by unit identity."""
    case = _plan(net).case
    return {id(unit): case[j] for j, unit in enumerate(net.units)
            if isinstance(unit, BeamSplitter)}


def test_only_polarization_free_networks_get_scalar_splitters():
    # the mesh routes a scalar message; a Hadamard on its source wire puts
    # it back on the two-component branch.  The polarized walk's PBSs
    # merge (out-port 1 is dead, and exactly the merges leave it unwired)
    # or split; a split, fed on in-port 0 alone, keeps the general case, as
    # does a PBS fed on both in-ports and emitting on both out-ports
    def kinds(net):
        return set(adaptive_kinds(net).values())

    assert kinds(build_jeong(4, PHI1, PHI2)) == {_BS1}
    assert kinds(build_mixed(4, PHI1, PHI2)) == {_BS}
    robens = build_robens(0.95)
    assert kinds(robens) == {_PBS, _MERGE}
    case = adaptive_kinds(robens)
    pbs = [u for u in robens.units if isinstance(u, PolarizingBeamSplitter)]
    assert ({id(u) for u in pbs if u.out[1] is None}
            == {id(u) for u in pbs if case[id(u)] == _MERGE})
    assert kinds(build_rejoined()) == {_PBS}


@pytest.mark.parametrize("build", [lambda: build_jeong(4, PHI1, PHI2),
                                   lambda: build_mixed(4, PHI1, PHI2),
                                   build_robens, build_rejoined],
                         ids=["jeong", "mixed", "robens", "rejoined"])
def test_unit_kinds_do_not_depend_on_unit_order(build):
    # the liveness pass follows the wiring, not the order of net.units
    net = build()
    expected = adaptive_kinds(net)
    for reorder in (lambda units: units.reverse(),
                    lambda units: random.Random(7).shuffle(units)):
        reorder(net.units)
        assert adaptive_kinds(net) == expected


def test_cases_follow_add_and_connect():
    # a plan compiled by a run is dropped by a later connect, cases and all
    net = build_jeong(4, PHI1, PHI2)
    run(net, 300, RngStream(6))
    assert set(adaptive_kinds(net).values()) == {_BS1}
    splice_hadamard(net, net.source, 0)
    assert set(adaptive_kinds(net).values()) == {_BS}


@pytest.mark.parametrize("build,seeded", [
    (lambda: build_robens(0.95), 10),
    (lambda: build_jeong(12, PHI1, PHI2, 0.98), 78),
], ids=["robens", "mesh12"])
def test_kernel_seeds_only_the_units_that_draw(monkeypatch, build, seeded):
    # of the Robens network's 24 PBSs the 14 merges generate no number, so
    # the kernel derives seeds for the 10 splits alone; every splitter of
    # the mesh draws.  Counts and registers stay those of the Python loop,
    # which derives a stream for every adaptive unit
    real, calls = core.derive_seed, []

    def counted(seed, *indices):
        calls.append(indices)
        return real(seed, *indices)

    reference_net, reference = build(), CountingRng(17)
    expected = run(reference_net, 500, reference)
    net = build()
    monkeypatch.setattr(core, "derive_seed", counted)
    result = run_on_kernel(net, 500, 17)
    case = _plan(net).case
    assert len(calls) == seeded
    assert calls == [(j,) for j, c in enumerate(case)
                     if c not in (-1, 0, _MERGE)]
    assert result == expected
    assert (splitter_registers(net, result.registers)
            == splitter_registers(reference_net, expected.registers))
    run_on_kernel(net, 1, 18)
    assert calls == 2 * calls[:seeded]  # looked up again by the next run


def test_a_restored_derive_seed_is_the_one_later_runs_call():
    # a tracer may wrap core.derive_seed around the run that first imports
    # _kernel and then put the original back; the kernel looks the function
    # up on every run, so a later run calls the wrapper no more.  A fresh
    # interpreter has not imported _kernel yet
    code = textwrap.dedent("""
        import sys
        from qwalk import core
        from qwalk.network import build_robens, run

        assert "qwalk._kernel" not in sys.modules
        real, calls = core.derive_seed, []

        def wrapped(*args):
            calls.append(args)
            return real(*args)

        core.derive_seed = wrapped
        run(build_robens(0.95), 10, core.RngStream(1))
        core.derive_seed = real
        from qwalk import _kernel
        assert _kernel.load() is not None, "the compiled kernel did not load"
        first = len(calls)
        run(build_robens(0.95), 10, core.RngStream(1))
        print(first, len(calls))
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    first, total = map(int, out.split())
    assert first == 10  # the Robens network's splits, seeded by the wrapper
    assert total == first


@RUN_SHAPES
def test_plan_gives_each_unit_that_draws_its_own_stream(build, filters, taps):
    # stream q belongs to the q-th unit that draws, in unit order; a merge,
    # any other unit and the sink have none.  Filters and taps change no
    # table of the plan
    plan = _plan(build())
    drawing = [j for j, c in enumerate(plan.case) if c in (_BS, _PBS, _BS1)]
    assert plan.drawing == drawing
    assert plan.stream.typecode == "i"
    assert plan.stream.tolist() == [drawing.index(j) if j in drawing else _NONE
                                    for j in range(len(plan.case))]


def test_kernel_codes_are_the_plans_and_the_loaders():
    # the kernel reads the plan's tables as they are, and _kernel.run must
    # tell apart every code qwalk_run returns; OK and a hop's FLYING and
    # HELD stay inside the kernel
    source = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.read_text(), flags=re.S)
    items = ",".join(re.findall(r"\benum\s*\{([^}]*)\}", source)).split(",")
    enums = {name.strip(): int(value)
             for name, value in (item.split("=") for item in items)}
    expected = {"OK": 0, "FLYING": -1, "HELD": -2}
    expected |= {name: getattr(network, f"_{name}")
                 for name in ("DETECTOR", "BS", "PBS", "BS1", "MERGE",
                              "NONE", "ABSORB", "PASS", "HADAMARD", "PHASE")}
    expected |= {name: getattr(_kernel, f"_{name}")
                 for name in ("VANISHED", "UNTAPPED", "NO_MEMORY", "NOT_UNIT")}
    assert enums == expected


def test_hop_has_one_arm_per_unit_case():
    # every unit case network.py defines (the codes _plan and _live_inputs
    # assign) has exactly one case arm in hop(), and every arm one of them:
    # a case removed from network.py leaves no dead arm, and a case added
    # there needs its arm
    [codes] = [[target.id.lstrip("_") for target in node.targets[0].elts]
               for node in ast.parse(inspect.getsource(network)).body
               if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Tuple)
               and "_DETECTOR" in [getattr(t, "id", None)
                                   for t in node.targets[0].elts]]
    source = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.read_text(), flags=re.S)
    [body] = re.findall(r"^static inline int hop\(.*?^}$", source,
                        flags=re.M | re.S)
    arms = re.findall(r"\bcase\s+(\w+)\s*:", body)
    assert sorted(arms) == sorted(codes)


def test_loader_argtypes_match_the_kernels_prototype():
    # ctypes converts each argument by argtypes alone, so they must follow
    # qwalk_run's parameters one to one
    [params] = re.findall(r"^int qwalk_run\(([^)]*)\)",
                          _kernel.SOURCE.read_text(), flags=re.M)
    c_types = {"int": ctypes.c_int, "long long": ctypes.c_longlong}
    expected = [ctypes.c_void_p if "*" in param
                else c_types[" ".join(param.split()[:-1])]
                for param in params.split(",")]
    fn = _kernel.load()
    assert fn is not None, "the compiled kernel did not load"
    assert list(fn.argtypes) == expected
    assert fn.restype is ctypes.c_int


#: learning rates and K, the number of 2**-1074 steps up to the fixed point
#: (0.5 and 0.75 tie at K = 1 and K = 2, which round to the even k)
FIXED_POINTS = [(0.0, 0), (0.3, 0), (0.5, 0), (0.75, 2), (0.8, 2), (0.95, 9),
                (0.98, 24), (0.999, 499)]


@pytest.mark.parametrize("gamma,steps", FIXED_POINTS,
                         ids=[str(g) for g, _ in FIXED_POINTS])
def test_fixed_point_is_the_last_weight_gamma_leaves_alone(gamma, steps):
    # every w = k * 2**-1074 with k <= K has gamma * w == w, and K + 1 has not
    tiny = math.ulp(0.0)
    t = _fixed_point(gamma)
    assert t == steps * tiny
    assert all(gamma * (k * tiny) == k * tiny for k in range(steps + 1))
    assert gamma * (t + tiny) != t + tiny


def test_fixed_point_of_the_largest_gamma_is_the_least_normal():
    # 1 - gamma = 2**-53: K = 2**52, a tie that rounds to the even k
    gamma, tiny = 1.0 - 2.0 ** -53, math.ulp(0.0)
    t = _fixed_point(gamma)
    assert t == 2.0 ** -1022 and gamma * t == t
    assert gamma * (t + tiny) != t + tiny
    assert gamma * (t - tiny) == t - tiny


@pytest.mark.parametrize("build", [lambda: build_jeong(4, PHI1, PHI2, 0.8),
                                   lambda: build_robens(0.8)],
                         ids=["mesh", "robens"])
def test_plan_marks_the_fixed_points_of_dead_ports(build):
    # the mesh's top splitter and the splits of the polarized walk, its
    # PBSs that do not merge, are fed on in-port 0 alone; every other port
    # of theirs is live
    net = build()
    plan = _plan(net)
    t = 2 * math.ulp(0.0)
    assert set(plan.fixed) == {-1.0, t}
    dead = {(j, k) for j in range(len(net.units)) for k in (0, 1)
            if plan.fixed[2 * j + k] == t}
    top = plan.dst[plan.start]
    fed_once = {j for j, c in enumerate(plan.case) if c == _PBS} | {top}
    assert {(j, 1) for j in fed_once} <= dead
    assert all(plan.fixed[2 * j] == -1.0 for j in fed_once)


@pytest.mark.parametrize("build", [lambda: build_jeong(4, PHI1, PHI2, 0.8),
                                   lambda: build_robens(0.8)],
                         ids=["mesh", "robens"])
def test_loops_agree_past_a_subnormal_fixed_point(monkeypatch, build):
    # at gamma 0.8 a dead port's weight 0.5 * 0.8**k reaches its fixed point
    # 2 * 2**-1074 after 3 329 arrivals on the other port, and from there
    # the kernel skips its product and square root; the Python loop does
    # them all
    net = build()
    result = run_on_kernel(net, 5000, 8)
    assert any(0.0 < abs(x) < sys.float_info.min for x in result.registers)
    assert 2 * math.ulp(0.0) in result.registers
    on_kernel = splitter_registers(net, result.registers)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    on_loop = run(net, 5000, RngStream(8))
    assert on_loop == result
    assert splitter_registers(net, on_loop.registers) == on_kernel


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty cache and a loader that has not run in this process yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "qwalk"
    _kernel.load.cache_clear()


def compiles(monkeypatch):
    """Counts the compiler runs of the loader."""
    calls = []
    real = subprocess.run

    def counted(cmd, **kwargs):
        calls.append(cmd)
        return real(cmd, **kwargs)

    monkeypatch.setattr(_kernel.subprocess, "run", counted)
    return calls


def test_import_loads_no_kernel():
    code = ("import sys, qwalk, qwalk.cli; "
            "sys.exit(bool({'ctypes', 'qwalk._kernel'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_compile_flags_keep_pythons_float_arithmetic():
    # the kernel reproduces CPython's doubles only with no fused products
    # and no flag that reorders or approximates float arithmetic
    assert "-ffp-contract=off" in _kernel.COMPILE
    unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
              "-ffinite-math-only", "-freciprocal-math", "-fassociative-math",
              "-fno-signed-zeros"}
    assert not unsafe & set(_kernel.COMPILE)


def test_second_load_does_not_recompile(fresh_loader, monkeypatch):
    calls = compiles(monkeypatch)
    assert _kernel.load() is not None
    [library] = fresh_loader.iterdir()
    assert library.name.startswith("_kernel-") and library.suffix == ".so"
    built = library.stat().st_mtime_ns
    _kernel.load.cache_clear()  # as in a new process
    assert _kernel.load() is not None
    assert len(calls) == 1
    assert list(fresh_loader.iterdir()) == [library]
    assert library.stat().st_mtime_ns == built
    assert ctypes.CDLL(str(_kernel.library_path())).qwalk_run


def test_missing_compiler_is_reported_once_on_stderr(fresh_loader, monkeypatch,
                                                     capsys):
    argv = ["robens", "--taps", "--format", "json", "--particles", "500"]
    assert main(argv) == 0
    on_kernel = capsys.readouterr()
    assert on_kernel.err == ""
    built = list(fresh_loader.iterdir())

    _kernel.load.cache_clear()
    monkeypatch.setattr(_kernel, "COMPILE", ("no-such-compiler",) + _kernel.COMPILE[1:])
    assert main(argv) == 0
    assert main(argv) == 0
    fallback = capsys.readouterr()
    assert fallback.out == 2 * on_kernel.out
    [line] = fallback.err.splitlines()
    assert line.startswith("qwalk: compiled event loop unavailable (")
    assert line.endswith("); using the Python loop")
    assert list(fresh_loader.iterdir()) == built


def test_failed_compile_leaves_no_file(fresh_loader, monkeypatch, capsys):
    monkeypatch.setattr(_kernel, "COMPILE", _kernel.COMPILE + ("-no-such-flag",))
    assert _kernel.load() is None
    assert "qwalk: compiled event loop unavailable" in capsys.readouterr().err
    assert list(fresh_loader.iterdir()) == []
    net = build_robens(0.9)
    assert run(net, 200, RngStream(5)).removed == 0


def stderr_without_compiler(tmp_path, *args) -> list[str]:
    """The stderr lines of ``python *args`` with no compiler and an empty cache."""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PATH": str(tmp_path)}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stderr.splitlines()


def test_pool_job_reports_a_missing_compiler_once(tmp_path):
    # the pool's threads start their first runs together, and share one
    # load() instead of each reporting the fallback
    code = ("import sys; from qwalk.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    lines = stderr_without_compiler(tmp_path, "-c", code, "lgi", "--particles",
                                    "300", "--replicates", "2", "--workers", "2")
    reports = [line for line in lines
               if line.startswith("qwalk: compiled event loop unavailable (")]
    assert len(reports) == 1


def test_threads_starting_together_share_one_load(tmp_path):
    # functools.cache alone is no lock: four threads that make their first
    # run at once would each try the missing compiler and each report it
    code = textwrap.dedent("""
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from qwalk.core import RngStream
        from qwalk.network import build_jeong, run

        barrier = threading.Barrier(4, timeout=60)

        def first_run(seed):
            net = build_jeong(2, 1.5, -1.5)
            barrier.wait()  # each of the pool's 4 threads takes one
            return sum(run(net, 10, RngStream(seed)).counts.values())

        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(first_run, range(4))) == [10] * 4
    """)
    [line] = stderr_without_compiler(tmp_path, "-c", code)
    assert re.fullmatch(r"qwalk: compiled event loop unavailable \(.*\); "
                        r"using the Python loop", line)
