"""Network topologies and the event loop, one particle at a time.

Two builders are provided.  ``build_jeong`` wires the triangular mesh of
50:50 beam splitters and phase shifters in which the walk position is path
encoded: the first output port of every splitter heads one lattice site to
the left, the second one site to the right, and interference happens where
two rails meet at the next splitter.  ``build_robens`` wires the four-step
polarized-photon network in which the position shift is polarization encoded:
each jump is a Hadamard on every occupied rail followed by a column of
polarizing beam splitters that send the h component of site x to x-1 and the
v component to x+1.  Every jump needs one splitting PBS per occupied site and
one merging PBS per target site.  The merge's second output is left
unwired: it carries zero amplitude (registers that never receive a component
stay exactly zero), which ``run`` proves before the first particle, so
particle conservation is exact.  Redundant single-input PBSs at the edges are
instantiated rather than optimized away.

The polarized network carries three labeled cut points: t1 on the wire
leaving the source, t2 on the two wires leaving the first merge column
(sites -1 and +1), and t3 on the wires entering the detectors.  With taps
enabled the loop notes the t2 site each particle crosses and, at
detection, tallies it into a (t2 site x detector site) table; it touches
nothing else.  A removal filter absorbs every particle crossing one
annotated wire, which is the ideal negative measurement used by the
Leggett-Garg analysis.

A run's results are those of a strictly sequential run: a particle
finishes (detector or filter) before the next one is emitted, and the
adaptive registers persist across all particles of the run.  ``run``
compiles the graph into flat tables (``_plan``) once per network, which
also checks it: one source, no cycle, and every port a particle can reach
is wired.  A compiled C kernel (``_kernel.c``) or the Python loop ``_loop``
then routes the particles through those same tables, with bit-identical
results.  The Python loop sends one particle at a time.  The kernel keeps a
few in flight but overlaps only hops that commute: a hop touches only the
unit it enters, and a particle enters a unit only after every older one has
passed the unit's rank (``_live_inputs``), so each unit sees its particles
in the order they were emitted.  Each run starts every adaptive unit from
fresh registers, its own copy of the plan's, and a stream derived from the
supplied one, so identical seeds reproduce bit-identical counts, tables and
final registers.
"""
from __future__ import annotations

import math
import threading
from array import array
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .core import (
    AdaptiveState,
    BeamSplitter,
    Detector,
    HadamardUnit,
    Message,
    PhaseShifter,
    PolarizingBeamSplitter,
    RngStream,
    Source,
    SOURCE_MESSAGE,
    _check_int,
    _check_phases,
    _not_unit,
    _untapped,
    _vanished_at,
    adaptive_update,
    bs_route,
    hadamard_apply,
    pbs_route,
)
from .errors import DegenerateAmplitude, InvalidLevels, QwalkError, UnwiredPort

MAX_LEVELS = 12  # unit count grows as levels^2; desk-scale bound
#: the most particles one run takes: the C kernel counts them in a long long
_MAX_PARTICLES = 2 ** 63 - 1


class RemovalFilter(NamedTuple):
    """Absorb every particle crossing the cut-point wire at ``site``.

    ``site`` names the rail that is absorbed: RemovalFilter("t2", +1) removes
    particles found at x = +1, keeping the x = -1 branch untouched.
    """

    label: str
    site: int


class RunResult(NamedTuple):
    counts: dict[int, int]
    #: t2[x2][x] = particles that crossed t2 at x2 and were detected at x;
    #: every detector site for both t2 sites when taps are on, else empty
    t2: dict[int, dict[int, int]]
    removed: int
    #: the final registers: unit j's w0, w1, then y0h, y0v, y1h, y1v as
    #: (re, im) pairs at [10*j, 10*j + 10); zeros for a non-adaptive unit
    registers: array


class Wire:
    """Directed connection into one input port, optionally carrying a cut-point tag."""

    __slots__ = ("dst", "dst_port", "tap_label", "tap_site")

    def __init__(self, dst, dst_port: int, tap=None):
        self.dst = dst
        self.dst_port = dst_port
        self.tap_label, self.tap_site = tap if tap is not None else (None, None)


class Network:
    """Directed acyclic graph of processing units owned by one run at a time.

    ``run`` compiles the graph once (``_plan``) and keeps the tables until
    the next ``add`` or ``connect``; the units' parameters (gamma, phase,
    detector site) are read then.
    """

    def __init__(self):
        self.units: list = []
        self.source: Source | None = None
        #: label -> {site: wire} for every annotated cut point
        self.cut_points: dict[str, dict[int, Wire]] = {}
        self._plan: SimpleNamespace | None = None

    @property
    def detector_sites(self) -> list[int]:
        """Sorted sites of the network's detectors."""
        return sorted({u.site for u in self.units if isinstance(u, Detector)})

    def add(self, unit):
        if isinstance(unit, Source):
            if self.source is not None:
                raise QwalkError("network already has a source")
            self.source = unit
        self.units.append(unit)
        self._plan = None
        return unit

    def connect(self, src, src_port: int, dst, dst_port: int, tap=None) -> Wire:
        if src_port not in range(len(src.out)):
            raise QwalkError(f"{type(src).__name__} has no output port {src_port}")
        if dst_port not in range(dst.n_inputs):
            raise QwalkError(f"{type(dst).__name__} has no input port {dst_port}")
        if src.out[src_port] is not None:
            raise QwalkError("output port already wired")
        wire = Wire(dst, dst_port, tap)
        src.out[src_port] = wire
        self._plan = None
        if tap is not None:
            label, site = tap
            self.cut_points.setdefault(label, {})[site] = wire
        return wire


def build_jeong(levels: int, phi1: float, phi2: float, gamma: float = 0.95) -> Network:
    """Triangular mesh walk: bare splitter at the top, dressed splitters below.

    Level 1 holds a single beam splitter at x = 0 fed by the source on its
    first (up) port.  Each level l = 2..levels holds, at every occupied site,
    the triple phase-shifter(phi1, on the up input rail) -> beam splitter ->
    phase-shifter(phi2, on the down output rail).  The up output of the
    splitter at site x feeds site x-1 on the next level, the down output
    feeds x+1; after the last level both rails terminate in detectors at
    x in {-levels, -levels+2, ..., +levels}.
    """
    if not 1 <= levels <= MAX_LEVELS:
        raise InvalidLevels(f"levels must be in 1..{MAX_LEVELS}, got {levels}")
    _check_phases(phi1=phi1, phi2=phi2)
    net = Network()
    source = net.add(Source())
    top = net.add(BeamSplitter(gamma))
    net.connect(source, 0, top, 0)
    # rails[target_site][kind] = (unit, out_port); kind "up" moves left, "dn" right
    rails: dict[int, dict[str, tuple]] = {
        -1: {"up": (top, 0)},
        +1: {"dn": (top, 1)},
    }
    for level in range(2, levels + 1):
        nxt: dict[int, dict[str, tuple]] = {}
        for x in range(-level + 1, level, 2):
            feeds = rails.get(x, {})
            p1 = net.add(PhaseShifter(phi1))
            bs = net.add(BeamSplitter(gamma))
            p2 = net.add(PhaseShifter(phi2))
            net.connect(p1, 0, bs, 0)
            net.connect(bs, 1, p2, 0)
            if "up" in feeds:
                src, port = feeds["up"]
                net.connect(src, port, p1, 0)
            if "dn" in feeds:
                src, port = feeds["dn"]
                net.connect(src, port, bs, 1)
            nxt.setdefault(x - 1, {})["up"] = (bs, 0)
            nxt.setdefault(x + 1, {})["dn"] = (p2, 0)
        rails = nxt
    for site in sorted(rails):
        for _kind, (src, port) in sorted(rails[site].items()):
            det = net.add(Detector(site))
            net.connect(src, port, det, 0)
    return net


def build_robens(gamma: float = 0.95) -> Network:
    """Four-jump polarized walk with cut points t1, t2, t3.

    Each jump applies a Hadamard to every occupied rail, splits it on a PBS
    (h exits toward x-1, v toward x+1), and merges the rails arriving at each
    target site on another PBS whose first output carries the recombined
    state.  Detectors sit at x in {-4, -2, 0, 2, 4}.
    """
    net = Network()
    source = net.add(Source())
    # pending[site] = (unit, out_port, tap annotation for the next wire)
    pending: dict[int, tuple] = {0: (source, 0, ("t1", 0))}
    for jump in range(1, 5):
        splits: dict[int, PolarizingBeamSplitter] = {}
        for x in sorted(pending):
            src, port, tap = pending[x]
            had = net.add(HadamardUnit())
            net.connect(src, port, had, 0, tap=tap)
            pbs = net.add(PolarizingBeamSplitter(gamma))
            net.connect(had, 0, pbs, 0)
            splits[x] = pbs
        targets = sorted({x - 1 for x in splits} | {x + 1 for x in splits})
        nxt: dict[int, tuple] = {}
        for x2 in targets:
            merge = net.add(PolarizingBeamSplitter(gamma))
            if x2 + 1 in splits:
                net.connect(splits[x2 + 1], 0, merge, 0)  # h rail moving left
            if x2 - 1 in splits:
                net.connect(splits[x2 - 1], 1, merge, 1)  # v rail moving right
            tap = None
            if jump == 1:
                tap = ("t2", x2)
            elif jump == 4:
                tap = ("t3", x2)
            nxt[x2] = (merge, 0, tap)
        pending = nxt
    for x2 in sorted(pending):
        src, port, tap = pending[x2]
        det = net.add(Detector(x2))
        net.connect(src, port, det, 0, tap=tap)
    return net


# Compiled form of a network: the one set of tables that both event loops
# read, ``_loop`` and the C kernel (``_kernel.c``, which repeats these
# codes).  Units are numbered by their position in ``net.units``, and unit
# n, one past the last, is the sink that unwired ports lead to; the edge
# leaving unit j on out-port q is numbered 2*j + q.
#: unit cases: a detector, a splitter, and a splitter whose messages have
#: dead halves (``_live_inputs``); _NONE for the source, a stateless unit and
#: the sink
_DETECTOR, _BS, _PBS, _BS1, _MERGE = 0, 1, 2, 3, 4
#: edge tags: _NONE, _ABSORB (a removal filter's edge, which ``run``
#: overlays) or the row of the t2 site the edge crosses
_NONE, _ABSORB = -1, -2
#: edge transforms: none, a polarization Hadamard or a phase factor
_PASS, _HADAMARD, _PHASE = 0, 1, 2
#: bits of a set of message halves that can be nonzero
_H, _V = 1, 2


def _live_inputs(units: list, case: array, rank: array, dst: array,
                 dst_port: array, xform: array, start: int) -> list:
    """Picks each splitter's ``case`` from the message halves live at its in-ports.

    The halves of a message that can be nonzero at a unit's in-ports 0 and
    1 follow from the wiring: the source edge ``start`` carries the nonzero
    halves of ``SOURCE_MESSAGE``, a phase edge keeps its set and a Hadamard
    edge turns any non-empty set into {h, v}.  A half outside the set is
    exactly ±0 whenever a particle arrives, and a port that emits no half
    is never taken: a particle only leaves on a port with nonzero amplitude,
    so such a port may stay unwired.  One topological pass (Kahn's
    algorithm) visits each unit once, after every unit wired into it, so
    the cases do not depend on the order of ``units``.  The same pass sets
    ``rank[j]``, the length of the longest path from the source to unit j,
    so that rank grows strictly along every wired edge; the C kernel orders
    the particles it has in flight by it.

    Two cases let the C kernel skip terms of a dead half, each a +0.0
    square or a ±0 register, so it computes the same doubles as
    ``adaptive_update`` and ``bs_route``/``pbs_route``, which the Python
    loop runs for every case.  Each measured faster than the general case:

    - ``_BS1``: a beam splitter that no v half reaches; it updates and
      routes the h half alone.
    - ``_MERGE``: a PBS whose out-port 1 is dead (h only on in-port 0, v
      only on in-port 1).  Its p1 is +0.0, so p0/total is exactly 1.0 and
      port 0 always wins.  The kernel updates both halves, as
      ``adaptive_update`` does, but draws no number (the Python loop draws
      one and discards it); no other unit reads its stream.

    Any other splitter keeps its case, ``_BS`` or ``_PBS``; a PBS that
    nothing reaches on in-port 1 keeps ``_PBS``, whose arithmetic is
    ``pbs_route``'s, dead halves and all.  Returns the sets,
    ``live[j][k]`` for in-port k of unit j; 0 marks a dead port, one
    no particle reaches.  Raises ``UnwiredPort`` for an unwired port that
    can emit a half, and ``QwalkError`` if a unit is never visited, which
    puts it on a cycle.
    """
    n = len(units)
    live = [[0, 0] for _ in range(n)]
    waiting = [0] * n
    for target in dst:
        if target < n:
            waiting[target] += 1
    ready = [j for j in range(n) if not waiting[j]]
    visited = 0
    h, v = SOURCE_MESSAGE
    while ready:
        j = ready.pop()
        visited += 1
        in0, in1 = live[j]
        if 2 * j == start:
            emitted = ((_H if h else 0) | (_V if v else 0), 0)
        elif case[j] == _BS:
            emitted = (in0 | in1, in0 | in1)
            if not (in0 | in1) & _V:
                case[j] = _BS1
        elif case[j] == _PBS:  # z0 = (v0h, i*v1v), z1 = (v1h, i*v0v)
            emitted = ((in0 & _H) | (in1 & _V), (in1 & _H) | (in0 & _V))
            if not emitted[1]:
                case[j] = _MERGE
        else:
            continue
        for port, halves in enumerate(emitted):
            e = 2 * j + port
            target = dst[e]
            if target == n:
                if halves:
                    raise UnwiredPort(f"the path from {type(units[j]).__name__} "
                                      f"output port {port} ends unwired")
                continue
            if halves and xform[e] == _HADAMARD:
                halves = _H | _V
            if rank[target] <= rank[j]:
                rank[target] = rank[j] + 1
            live[target][dst_port[e]] |= halves
            waiting[target] -= 1
            if not waiting[target]:
                ready.append(target)
    if visited < n:
        raise QwalkError("wiring graph contains a cycle")
    return live


def _fixed_point(gamma: float) -> float:
    """T(gamma), the largest double at or below which every w has gamma * w == w.

    The doubles up to 2**-1022 are k * 2**-1074, and gamma * w is the
    exact k - (1 - gamma) * k rounded to an integer, ties to even, times
    2**-1074.  So w is fixed for every k up to K, the largest k with
    (1 - gamma) * k < 1/2, or == 1/2 for an even k; 1 - gamma >= 2**-53
    keeps K * 2**-1074 at or below 2**-1022.  K comes from that bound, in
    integers (gamma = a / b, so K is about b / (2 (b - a))), not from a
    scan, which would take about 0.5 / (1 - gamma) steps, and IEEE
    products at K and K + 1 confirm it.
    """
    tiny = math.ulp(0.0)
    a, b = gamma.as_integer_ratio()
    k, rest = divmod(b, 2 * (b - a))
    if rest == 0 and k % 2:
        k -= 1
    t = k * tiny
    if not (gamma * t == t and gamma * (t + tiny) != t + tiny):
        raise QwalkError(f"no fixed point of gamma * w found at gamma={gamma!r}")
    return t


def _plan(net: Network) -> SimpleNamespace:
    """The network's compiled tables, built on the first run after a change.

    The plan is kept on the network until ``add`` or ``connect`` drops it,
    or until ``net.units`` no longer holds the units it was compiled from.
    Building it checks the graph, so a malformed network raises on every
    run.

    Each edge runs from an adaptive unit (or the source) to the next adaptive
    unit or detector; the stateless unit sitting on it, if any, is folded
    into the edge as its transform.  t2 wires tag their edge with the row of
    their site.  An unwired port's edge leads to the sink, and
    ``_live_inputs`` proves that no particle takes it.  A network without a
    source, with a cycle, with a reachable unwired port, with two stateless
    units on one edge or wired to a unit it does not hold raises
    ``QwalkError`` (``UnwiredPort`` for the port).

    The tables are ``array``s in the codes above, which the C kernel reads
    as they are and ``_loop`` through list copies:

    - per unit and the sink: ``case``, the detector's count ``slot`` (the
      index of its site in ``sites``; detectors at one site share it, and
      any other unit has _NONE), its ``rank`` (see ``_live_inputs``; 0 for
      the source, a stateless unit and the sink) and the ``gamma`` of an
      adaptive unit (0.0 for any other);
    - ``stream``, per unit and the sink: q for the q-th unit of
      ``drawing``, which draws from the C kernel's q-th stream, and _NONE
      for any other unit and the sink.  This is the one place streams are
      assigned;
    - ``fixed``, two per unit and the sink: ``fixed[2j + k]`` is
      ``_fixed_point(gamma)`` if in-port k of adaptive unit j is dead
      (``_live_inputs``), and -1.0, below every weight, otherwise.  The C
      kernel does no subnormal arithmetic on a dead port's weight at or
      below it;
    - ``reg``, the template of a run's registers: 10 doubles per unit and
      the sink, laid out as ``RunResult.registers``, w0 = w1 = 1/2 and
      y = 0 for an adaptive unit and 0.0 elsewhere.  Each run copies it,
      and nothing writes to it;
    - per edge: ``dst`` unit, its ``dst_port``, ``tag``, ``xform`` and, for
      a phase edge, the factor's real and imaginary parts in ``factor[2e]``
      and ``factor[2e + 1]``;
    - ``source``, the emitted message as (h.re, h.im, v.re, v.im).

    The plan also holds ``start``, the edge leaving the source; ``edge``,
    the edge of every annotated wire; the sorted detector ``sites`` and
    ``t2_sites``, which key the slots and t2 rows; ``adaptive``, the
    indices of the adaptive units in order, and ``drawing``, those of them
    that generate numbers on the C kernel (all but the merges); and
    ``units``, the units compiled.
    """
    units = net.units
    plan = net._plan
    if plan is not None and plan.units == units:
        return plan
    n = len(units)
    index = {id(u): j for j, u in enumerate(units)}
    sites = net.detector_sites
    t2_sites = sorted(net.cut_points.get("t2", ()))
    case, slot = array("i", [_NONE]) * (n + 1), array("i", [_NONE]) * (n + 1)
    gamma, reg = array("d", [0.0]) * (n + 1), array("d", [0.0]) * (10 * n + 10)
    for j, unit in enumerate(units):
        if isinstance(unit, Detector):
            case[j], slot[j] = _DETECTOR, sites.index(unit.site)
        elif isinstance(unit, BeamSplitter):
            case[j] = _PBS if isinstance(unit, PolarizingBeamSplitter) else _BS
            gamma[j] = unit.gamma
            reg[10 * j] = reg[10 * j + 1] = 0.5
    dst, dst_port = array("i", [n]) * (2 * n), array("i", [0]) * (2 * n)
    tag, xform = array("i", [_NONE]) * (2 * n), array("i", [_PASS]) * (2 * n)
    factor = array("d", [0.0]) * (4 * n)
    edge: dict = {}
    for j, unit in enumerate(units):
        if not isinstance(unit, (Source, BeamSplitter)):
            continue
        for port, wire in enumerate(unit.out):
            e = 2 * j + port
            while wire is not None:
                if wire.tap_label is not None:
                    edge[wire] = e
                    if wire.tap_label == "t2" and tag[e] == _NONE:
                        tag[e] = t2_sites.index(wire.tap_site)
                target = wire.dst
                if isinstance(target, PhaseShifter):
                    step = _PHASE
                    factor[2 * e] = target.factor.real
                    factor[2 * e + 1] = target.factor.imag
                elif isinstance(target, HadamardUnit):
                    step = _HADAMARD
                else:
                    if id(target) not in index:
                        raise QwalkError(f"{type(target).__name__} is wired in "
                                         "but was never added to the network")
                    dst[e] = index[id(target)]
                    dst_port[e] = wire.dst_port
                    break
                if xform[e] != _PASS:
                    raise QwalkError("more than one stateless unit on an edge")
                xform[e] = step
                wire = target.out[0]
    if net.source is None:
        raise QwalkError("network has no source")
    start = 2 * index[id(net.source)]
    rank = array("i", [0]) * (n + 1)
    live = _live_inputs(units, case, rank, dst, dst_port, xform, start)
    h, v = SOURCE_MESSAGE
    adaptive = [j for j, c in enumerate(case) if c > _DETECTOR]
    fixed, fixed_points = array("d", [-1.0]) * (2 * n + 2), {}
    for j in adaptive:
        for k in (0, 1):
            if not live[j][k]:
                g = gamma[j]
                if g not in fixed_points:
                    fixed_points[g] = _fixed_point(g)
                fixed[2 * j + k] = fixed_points[g]
    drawing = [j for j in adaptive if case[j] != _MERGE]
    stream = array("i", [_NONE]) * (n + 1)
    for q, j in enumerate(drawing):
        stream[j] = q
    net._plan = plan = SimpleNamespace(
        units=list(units), case=case, slot=slot, rank=rank, gamma=gamma,
        fixed=fixed, reg=reg, dst=dst, dst_port=dst_port, tag=tag, xform=xform,
        factor=factor,
        source=array("d", (h.real, h.imag, v.real, v.imag)), start=start,
        edge=edge, sites=sites, t2_sites=t2_sites, adaptive=adaptive,
        drawing=drawing, stream=stream)
    return plan


#: values ``_compiled`` keeps, the least recently used dropped first
_COMPILED_MAX = 8
_compiled_cache: dict = {}
_compiled_lock = threading.Lock()


def _compiled(builder, *args):
    """The value ``builder(*args)`` returns, made once per process.

    The key is the builder itself and each argument's type and ``repr``,
    which tells apart every pair of doubles (``0.0`` and ``-0.0`` too) and
    ``1``, ``1.0`` and ``True``.  At most ``_COMPILED_MAX`` values are
    kept, so a sweep over gamma does not hold them all.  Every caller gets
    the same object, which none may change: the networks, and the exact
    walk's rows that ``cli.cmd_jeong`` keeps here.

    Sharing a network is safe for a caller that only passes it to ``run``:
    ``run`` keeps only the plan (``_plan``), whose tables no run changes,
    and writes nothing to the network or its units; each run owns its
    registers, a copy of the plan's template, and its streams.  A forked
    process keeps its own copy of the cache; threads share it behind a
    lock.
    """
    key = (builder, *((type(a), repr(a)) for a in args))
    with _compiled_lock:
        value = _compiled_cache.pop(key, None)
        if value is None:
            value = builder(*args)
        _compiled_cache[key] = value  # now the most recently used
        if len(_compiled_cache) > _COMPILED_MAX:
            del _compiled_cache[next(iter(_compiled_cache))]
    return value


def _loop(plan: SimpleNamespace, tag: array, reg: array, n_particles: int,
          rng: RngStream, counts: array, t2: array) -> int:
    """The event loop in Python: the readable reference for ``_kernel.c``.

    Sends the particles through the plan's tables, with the run's edge tags
    ``tag`` and registers ``reg``; adds to the slots of ``counts`` and, if
    it is not empty, of the t2 table ``t2`` in place, and returns the
    removed tally.  Adaptive unit j draws from ``rng.derive(j)``.  The
    loop makes an ``AdaptiveState`` of each adaptive unit's registers in
    ``reg`` and writes the final ones back at its end.

    Every adaptive hop is ``adaptive_update`` followed by ``bs_route`` (case
    _BS or _BS1) or ``pbs_route`` (_PBS or _MERGE), with one number drawn
    after the update: the kernel's two dead-half cases, _BS1 and _MERGE,
    which each measured faster in the kernel than the general case, run
    here as the general case does.  An edge multiplies both halves by its
    phase factor, or applies ``hadamard_apply``.  The loop reads list
    copies of the tables: reading an ``array`` makes a new int for every
    value above 256.
    """
    route = [bs_route if c in (_BS, _BS1) else pbs_route if c > _DETECTOR
             else None for c in plan.case]
    state, draw = [None] * len(route), [None] * len(route)
    for j, r in enumerate(route):
        if r is not None:
            st = state[j] = AdaptiveState(plan.gamma[j])
            st.w0, st.w1, *y = reg[10 * j:10 * j + 10]
            st.y0h, st.y0v, st.y1h, st.y1v = map(complex, y[::2], y[1::2])
            draw[j] = rng.derive(j).random
    tag, dst, dst_port, xform, slot, factor = (
        a.tolist() for a in (tag, plan.dst, plan.dst_port, plan.xform,
                             plan.slot, plan.factor))
    phase = [complex(re, im) for re, im in zip(factor[::2], factor[1::2])]
    n_sites = len(plan.sites)
    taps_enabled = bool(t2)
    removed = 0
    for i in range(n_particles):
        e = plan.start
        m = SOURCE_MESSAGE
        x2 = _NONE
        while True:
            t = tag[e]
            if t != _NONE:
                if t == _ABSORB:
                    removed += 1
                    break
                x2 = t
            f = xform[e]
            if f == _HADAMARD:
                m = hadamard_apply(m)
            elif f == _PHASE:
                f = phase[e]
                m = Message(f * m.c_h, f * m.c_v)
            j = dst[e]
            r = route[j]
            if r is not None:
                st = state[j]
                port = dst_port[e]
                adaptive_update(st, port, m)
                try:
                    port, m = r(st, port, m, draw[j]())
                except DegenerateAmplitude as exc:
                    raise _vanished_at(plan.units[j], j, i, n_particles,
                                       exc.p0, exc.p1) from None
                e = 2 * j + port
            else:
                h, v = m
                p = (h.real * h.real + h.imag * h.imag
                     + v.real * v.real + v.imag * v.imag)
                if not abs(p - 1.0) <= 1e-12:  # also catches a NaN
                    raise _not_unit(p)
                s = slot[j]
                counts[s] += 1
                if taps_enabled:
                    if x2 == _NONE:
                        raise _untapped()
                    t2[x2 * n_sites + s] += 1
                break
    for j, st in enumerate(state):
        if st is not None:
            reg[10 * j:10 * j + 10] = array("d", (
                st.w0, st.w1, st.y0h.real, st.y0h.imag, st.y0v.real,
                st.y0v.imag, st.y1h.real, st.y1h.imag, st.y1v.real, st.y1v.imag))
    return removed


def run(net: Network, n_particles: int, rng: RngStream,
        filters: Iterable[RemovalFilter] = (),
        taps_enabled: bool = False) -> RunResult:
    """Send ``n_particles`` through the network, as if one at a time.

    The network is compiled once, on its first run after an ``add`` or
    ``connect`` (``_plan``), and every later run reuses the tables.  Each
    run owns its registers, one array copied from the plan's template
    (fresh registers for every adaptive unit), which the loop updates in
    place, so they persist across all particles of the run and hold their
    final values at the end; each unit draws from its own stream, derived
    afresh from ``rng``.  The run writes nothing to the network or its
    units.  Returns the detector counts, the t2 table (empty unless
    ``taps_enabled``; a network without a t2 cut point cannot be tapped),
    the removed tally and the final registers (``RunResult.registers``).
    ``n_particles`` must be an ``int`` (not a ``bool``) in 1..2**63 - 1,
    ``rng`` an ``RngStream`` and every filter a ``RemovalFilter``
    (``TypeError`` otherwise).

    Both event loops read the plan's tables, with bit-identical results:
    the compiled kernel (``_kernel.c``), used when its library loads and
    ``rng`` is a plain ``RngStream``, and the Python loop ``_loop``, used
    otherwise (a subclassed stream, such as one that counts its draws,
    keeps it).  The run gives them what it owns: a copy of the edge tags
    with the filters' edges set to _ABSORB, its registers, and zeroed
    counts, one per detector slot, and t2 table, one row of slots per t2
    site (empty unless tapped), which they add to and from which the run's
    dicts are made.

    Both loops check at every detection that the message has unit norm,
    | |h|**2 + |v|**2 - 1 | <= 1e-12.  After the loop the run checks
    particle conservation and, for every adaptive unit, the register
    invariants: |w0 + w1 - 1| <= 1e-12, 0 <= w <= 1 and
    |y| <= 1 + 1e-12.  A breach raises ``QwalkError``.
    """
    _check_int("n_particles", n_particles)
    if not 1 <= n_particles <= _MAX_PARTICLES:
        raise ValueError(f"n_particles must be in 1..{_MAX_PARTICLES}, "
                         f"got {n_particles}")
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng).__name__}")
    wires = []
    for f in filters:
        if not isinstance(f, RemovalFilter):
            raise TypeError("filters must hold RemovalFilter values, got "
                            f"{type(f).__name__}")
        sites = net.cut_points.get(f.label)
        if sites is None or f.site not in sites:
            raise ValueError(f"no cut point {f.label!r} at site {f.site}")
        wires.append(sites[f.site])
    if taps_enabled and "t2" not in net.cut_points:
        raise ValueError("taps need a t2 cut point; this network has none")

    plan = _plan(net)
    tag = plan.tag[:]
    for wire in wires:
        if wire in plan.edge:
            tag[plan.edge[wire]] = _ABSORB
    reg = plan.reg[:]
    n_sites = len(plan.sites)
    counts = array("q", [0]) * n_sites
    t2 = array("q", [0]) * (len(plan.t2_sites) * n_sites if taps_enabled else 0)
    from . import _kernel  # on first use: import qwalk stays free of ctypes
    fn = _kernel.load() if type(rng) is RngStream else None
    if fn is None:
        removed = _loop(plan, tag, reg, n_particles, rng, counts, t2)
    else:
        removed = _kernel.run(fn, plan, tag, reg, n_particles, rng.seed,
                              counts, t2)
    if sum(counts) + removed != n_particles:
        raise QwalkError("conservation breach: emitted != detected + removed")
    hypot = math.hypot
    for j in plan.adaptive:
        w0, w1, a, b, c, d, e, f, g, h = reg[10 * j:10 * j + 10]
        y0, y1 = hypot(a, b, c, d), hypot(e, f, g, h)
        # written so that a NaN register fails the test too
        if not (abs(w0 + w1 - 1.0) <= 1e-12 and 0.0 <= w0 <= 1.0
                and 0.0 <= w1 <= 1.0 and y0 <= 1.0 + 1e-12 and y1 <= 1.0 + 1e-12):
            raise QwalkError(
                f"register invariant breach at {type(net.units[j]).__name__} {j}: "
                f"w0={w0!r}, w1={w1!r}, |y0|={y0!r}, |y1|={y1!r}")
    rows = {x2: dict(zip(plan.sites, t2[r * n_sites:(r + 1) * n_sites]))
            for r, x2 in enumerate(plan.t2_sites) if taps_enabled}
    return RunResult(dict(zip(plan.sites, counts)), rows, removed, reg)
