"""Network topologies and the one-particle-at-a-time event loop.

Two builders are provided.  ``build_jeong`` wires the triangular mesh of
50:50 beam splitters and phase shifters in which the walk position is path
encoded: the first output port of every splitter heads one lattice site to
the left, the second one site to the right, and interference happens where
two rails meet at the next splitter.  ``build_robens`` wires the four-step
polarized-photon network in which the position shift is polarization encoded:
each jump is a Hadamard on every occupied rail followed by a column of
polarizing beam splitters that send the h component of site x to x-1 and the
v component to x+1.  Every jump needs one splitting PBS per occupied site and
one merging PBS per target site; the merge's second output is a structural
dark port that carries zero amplitude (registers that never receive a
component stay exactly zero), so particle conservation is exact.  Redundant
single-input PBSs at the edges are instantiated rather than optimized away.

The polarized network carries three labeled cut points: t1 on the wire
leaving the source, t2 on the two wires leaving the first merge column
(sites -1 and +1), and t3 on the wires entering the detectors.  With taps
enabled the loop notes the t2 site each particle crosses and, at
detection, tallies it into a (t2 site x detector site) table; it touches
nothing else.  A removal filter absorbs every particle crossing one
annotated wire, which is the ideal negative measurement used by the
Leggett-Garg analysis.

A run is strictly sequential: a particle finishes (detector or filter)
before the next one is emitted, and the adaptive registers persist across
all particles of the run.  ``run`` compiles the graph into flat tables
(``_compile``), derives each adaptive unit's stream from the supplied
one and starts from fresh registers, so identical seeds reproduce
bit-identical counts and tables.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import (
    BeamSplitter,
    Detector,
    HadamardUnit,
    PhaseShifter,
    PolarizingBeamSplitter,
    RngStream,
    Source,
    SOURCE_MESSAGE,
    _INV_SQRT2,
    _vanished,
)
from .errors import InvalidLevels, QwalkError, UnwiredPort

MAX_LEVELS = 12  # unit count grows as levels^2; desk-scale bound


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


class Wire:
    """Directed connection into one input port, optionally carrying a cut-point tag."""

    __slots__ = ("dst", "dst_port", "tap_label", "tap_site")

    def __init__(self, dst, dst_port: int, tap=None):
        self.dst = dst
        self.dst_port = dst_port
        self.tap_label, self.tap_site = tap if tap is not None else (None, None)


class Network:
    """Directed acyclic graph of processing units owned by one run at a time."""

    def __init__(self):
        self.units: list = []
        self.source: Source | None = None
        self.detector_sites: list[int] = []
        #: label -> {site: wire} for every annotated cut point
        self.cut_points: dict[str, dict[int, Wire]] = {}
        #: output ports that legitimately carry zero amplitude
        self.dark_ports: set[tuple[int, int]] = set()

    def add(self, unit):
        self.units.append(unit)
        if isinstance(unit, Source):
            self.source = unit
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
        if tap is not None:
            label, site = tap
            self.cut_points.setdefault(label, {})[site] = wire
        return wire

    def mark_dark(self, unit, port: int) -> None:
        self.dark_ports.add((id(unit), port))

    def validate(self) -> None:
        """Check that every output port is wired or declared dark, and no cycles."""
        if self.source is None:
            raise QwalkError("network has no source")
        for unit in self.units:
            for port, wire in enumerate(unit.out):
                if wire is None and (id(unit), port) not in self.dark_ports:
                    raise UnwiredPort(
                        f"{type(unit).__name__} output port {port} is dangling")
        # cycle check: iterative DFS over the wiring graph
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {id(u): WHITE for u in self.units}
        for start in self.units:
            if color[id(start)] != WHITE:
                continue
            stack = [(start, iter(self._successors(start)))]
            color[id(start)] = GRAY
            while stack:
                node, it = stack[-1]
                for succ in it:
                    c = color[id(succ)]
                    if c == GRAY:
                        raise QwalkError("wiring graph contains a cycle")
                    if c == WHITE:
                        color[id(succ)] = GRAY
                        stack.append((succ, iter(self._successors(succ))))
                        break
                else:
                    color[id(node)] = BLACK
                    stack.pop()

    def _successors(self, unit) -> list:
        return [w.dst for w in unit.out if w is not None]


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
    if not (math.isfinite(phi1) and math.isfinite(phi2)):
        raise ValueError(f"phases must be finite, got phi1={phi1}, phi2={phi2}")
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
    net.detector_sites = sorted(rails)
    net.validate()
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
            net.mark_dark(merge, 1)
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
    net.detector_sites = sorted(pending)
    net.validate()
    return net


# Compiled form of a network.  Units are numbered by their position in
# ``net.units``; the edge leaving unit j on out-port q is numbered 2*j + q.
# _BS1, _SPLIT and _MERGE are adaptive units with dead message halves (see
# ``_compile``); _BS and _PBS are the general kernels.
_DETECTOR, _BS, _PBS, _BS1, _SPLIT, _MERGE, _DARK = 0, 1, 2, 3, 4, 5, -1
#: edge tag of a wire absorbed by a removal filter
_ABSORB = object()
#: edge transform of a polarization Hadamard (a phase edge holds its factor)
_HADAMARD = object()
#: bits of a set of message halves that can be nonzero
_H, _V = 1, 2


def _emitted(kind: int, in0: int, in1: int) -> tuple[int, int]:
    """Halves a splitter can emit on out-ports 0 and 1, given those reaching its in-ports."""
    if kind == _PBS:  # z0 = (v0h, i*v1v), z1 = (v1h, i*v0v)
        return (in0 & _H) | (in1 & _V), (in1 & _H) | (in0 & _V)
    return in0 | in1, in0 | in1


def _live_inputs(kind: list, dst: list, dst_port: list, xform: list,
                 start: int) -> list:
    """Per unit, the halves of a message that can be nonzero at in-ports 0 and 1.

    A half outside the set is exactly ±0 whenever a particle arrives, and a
    port whose set is empty is never reached: a particle only leaves on a
    port with nonzero amplitude.  The source edge ``start`` carries the
    nonzero halves of ``SOURCE_MESSAGE``; a phase edge keeps its set and a
    Hadamard edge turns any non-empty set into {h, v}.  Sets only grow, so
    propagating forward from the source until none grows gives the same
    result in any unit order (and on any graph).
    """
    n = len(kind) - 1
    live = [[0, 0] for _ in range(n)]
    pending: list = []

    def feed(e: int, halves: int) -> None:
        target = dst[e]
        if not halves or target == n:
            return
        if xform[e] is _HADAMARD:
            halves = _H | _V
        port = dst_port[e]
        if live[target][port] | halves != live[target][port]:
            live[target][port] |= halves
            if kind[target] != _DETECTOR:
                pending.append(target)

    h, v = SOURCE_MESSAGE
    feed(start, (_H if h else 0) | (_V if v else 0))
    while pending:
        j = pending.pop()
        for port, halves in enumerate(_emitted(kind[j], *live[j])):
            feed(2 * j + port, halves)
    return live


def _compile(net: Network, rng: RngStream, absorbed: set) -> tuple:
    """Lower the unit graph to the flat tables the event loop runs on.

    Each edge runs from an adaptive unit (or the source) to the next adaptive
    unit or detector; the stateless unit sitting on it, if any, is folded
    into the edge as its transform.  Wires in ``absorbed`` tag their edge as
    absorbing; t2 wires tag it with their site.  Unwired (dark) ports lead
    to a sentinel unit whose kind makes the loop raise ``UnwiredPort``.
    Registers start fresh, and adaptive unit j draws from ``rng.derive(j)``.

    Units whose messages have dead halves (``_live_inputs``) get a kernel
    that skips them; every term it skips is a +0.0 square or a ±0 register:

    - ``_BS1``: a beam splitter that no v half reaches; it updates and
      routes the h half alone.
    - ``_MERGE``: a PBS whose out-port 1 is dead (h only on in-port 0, v only
      on in-port 1).  Its p1 is +0.0, so p0/total is exactly 1.0 and port 0
      always wins.  It still draws once per hop, like every adaptive unit,
      and discards the number; no other unit reads its stream.
    - ``_SPLIT``: a PBS that nothing reaches on in-port 1.  z0 is (z0h, 0)
      and z1 is (0, z1v).

    Returns, in order:

    - per unit: ``kind`` (with the dark sentinel appended), detector ``site``;
    - per edge: ``dst`` unit, its ``dst_port``, ``tag`` (None, _ABSORB or
      the t2 site crossed) and ``xform`` (None, _HADAMARD or a phase factor);
    - per unit: ``gamma``, ``1 - gamma``, the six register lists (w0, w1,
      y0h, y0v, y1h, y1v) and ``draw``, the bound ``random`` of its stream;
    - the edge leaving the source.
    """
    units = net.units
    n = len(units)
    index = {id(u): j for j, u in enumerate(units)}
    kind: list = [None] * n + [_DARK]
    site: list = [None] * n
    gamma: list = [None] * n
    draw: list = [None] * n
    for j, unit in enumerate(units):
        if isinstance(unit, Detector):
            kind[j] = _DETECTOR
            site[j] = unit.site
        elif isinstance(unit, BeamSplitter):
            kind[j] = _PBS if isinstance(unit, PolarizingBeamSplitter) else _BS
            gamma[j] = unit.gamma
    dst: list = [n] * (2 * n)
    dst_port: list = [0] * (2 * n)
    tag: list = [None] * (2 * n)
    xform: list = [None] * (2 * n)
    for j, unit in enumerate(units):
        if not isinstance(unit, (Source, BeamSplitter)):
            continue
        for port, wire in enumerate(unit.out):
            e = 2 * j + port
            while wire is not None:
                if wire in absorbed:
                    tag[e] = _ABSORB
                elif wire.tap_label == "t2" and tag[e] is None:
                    tag[e] = wire.tap_site
                target = wire.dst
                if isinstance(target, PhaseShifter):
                    step = target.factor
                elif isinstance(target, HadamardUnit):
                    step = _HADAMARD
                else:
                    dst[e] = index[id(target)]
                    dst_port[e] = wire.dst_port
                    break
                if xform[e] is not None:
                    raise QwalkError("more than one stateless unit on an edge")
                xform[e] = step
                wire = target.out[0]
    start = 2 * index[id(net.source)]
    for j, (in0, in1) in enumerate(_live_inputs(kind, dst, dst_port, xform, start)):
        if kind[j] == _BS and not (in0 | in1) & _V:
            kind[j] = _BS1
        elif kind[j] == _PBS:
            if not _emitted(_PBS, in0, in1)[1]:
                kind[j] = _MERGE
            elif not in1:
                kind[j] = _SPLIT
        if gamma[j] is not None:
            draw[j] = rng.derive(j).random
    rest = [None if g is None else 1.0 - g for g in gamma]
    regs = ([0.5] * n, [0.5] * n, [0j] * n, [0j] * n, [0j] * n, [0j] * n)
    return (kind, site, dst, dst_port, tag, xform, gamma, rest, regs, draw,
            start)


def run(net: Network, n_particles: int, rng: RngStream,
        filters: Iterable[RemovalFilter] = (),
        taps_enabled: bool = False) -> RunResult:
    """Send ``n_particles`` through the network one at a time.

    Adaptive registers are reset at the start and persist across all
    particles of the run; at the end each adaptive unit's ``state`` holds
    its final registers.  Returns the detector counts, the t2 table (empty
    unless ``taps_enabled``; a network without a t2 cut point cannot be
    tapped), and the removed tally.

    The loop applies ``adaptive_update`` followed by ``bs_route`` or
    ``pbs_route``, and ``phase_shift``/``hadamard_apply`` on the edges, with
    the same float operations in the same order as those functions, and
    draws one number per adaptive hop after the update.  Units with dead
    message halves (see ``_compile``) skip the terms that are zero; a
    merging PBS, whose port 0 always wins, draws and discards its number.

    After the loop the run checks particle conservation and, for every
    adaptive unit, the register invariants: |w0 + w1 - 1| <= 1e-12,
    0 <= w <= 1 and |y| <= 1 + 1e-12.  A breach raises ``QwalkError``.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    absorbed = set()
    for f in filters:
        sites = net.cut_points.get(f.label)
        if sites is None or f.site not in sites:
            raise ValueError(f"no cut point {f.label!r} at site {f.site}")
        absorbed.add(sites[f.site])
    t2: dict[int, dict[int, int]] = {}
    if taps_enabled:
        if "t2" not in net.cut_points:
            raise ValueError("taps need a t2 cut point; this network has none")
        t2 = {x2: {site: 0 for site in net.detector_sites}
              for x2 in sorted(net.cut_points["t2"])}

    (kind, site_of, dst, dst_port, tag, xform, G, C,
     (W0, W1, Y0H, Y0V, Y1H, Y1V), draw, start) = _compile(net, rng, absorbed)
    # hot-loop names as locals
    sqrt = math.sqrt
    s = _INV_SQRT2
    BS, BS1, DETECTOR, ABSORB, HADAMARD = _BS, _BS1, _DETECTOR, _ABSORB, _HADAMARD
    SPLIT, MERGE = _SPLIT, _MERGE
    h0, v0 = SOURCE_MESSAGE
    counts = {site: 0 for site in net.detector_sites}
    removed = 0
    for _ in range(n_particles):
        e = start
        h = h0
        v = v0
        x2 = None
        while True:
            t = tag[e]
            if t is not None:
                if t is ABSORB:
                    removed += 1
                    break
                x2 = t
            f = xform[e]
            if f is not None:
                if f is HADAMARD:
                    h, v = (h + v) * s, (h - v) * s
                else:
                    h = f * h
                    v = f * v
            j = dst[e]
            k = kind[j]
            if k == BS1:
                # adaptive_update and bs_route on the h half alone
                g = G[j]
                c = C[j]
                if dst_port[e] == 0:
                    W0[j] = w0 = g * W0[j] + c
                    W1[j] = w1 = g * W1[j]
                    Y0H[j] = y0h = g * Y0H[j] + c * h
                    y1h = Y1H[j]
                else:
                    W1[j] = w1 = g * W1[j] + c
                    W0[j] = w0 = g * W0[j]
                    Y1H[j] = y1h = g * Y1H[j] + c * h
                    y0h = Y0H[j]
                u = draw[j]()
                v0h = sqrt(w0) * y0h
                v1h = sqrt(w1) * y1h
                z0h = (v0h + 1j * v1h) * s
                z1h = (1j * v0h + v1h) * s
                p0 = z0h.real ** 2 + z0h.imag ** 2
                p1 = z1h.real ** 2 + z1h.imag ** 2
                total = p0 + p1
                if not total >= 1e-30:
                    raise _vanished(p0, p1)
                if u < p0 / total:
                    h = z0h * (1.0 / sqrt(p0))
                    e = 2 * j
                else:
                    h = z1h * (1.0 / sqrt(p1))
                    e = 2 * j + 1
            elif k == SPLIT:
                # pbs_route fed on port 0 only: y1h and y1v stay zero
                g = G[j]
                c = C[j]
                W0[j] = w0 = g * W0[j] + c
                W1[j] = g * W1[j]
                Y0H[j] = y0h = g * Y0H[j] + c * h
                Y0V[j] = y0v = g * Y0V[j] + c * v
                u = draw[j]()
                a = sqrt(w0)
                z0h = a * y0h
                z1v = 1j * (a * y0v)
                p0 = z0h.real ** 2 + z0h.imag ** 2
                p1 = z1v.real ** 2 + z1v.imag ** 2
                total = p0 + p1
                if not total >= 1e-30:
                    raise _vanished(p0, p1)
                if u < p0 / total:
                    h = z0h * (1.0 / sqrt(p0))
                    v = 0j
                    e = 2 * j
                else:
                    h = 0j
                    v = z1v * (1.0 / sqrt(p1))
                    e = 2 * j + 1
            elif k == MERGE:
                # pbs_route with h only on port 0 and v only on port 1: p1 is
                # +0.0, so port 0 wins whatever the draw, which is discarded
                g = G[j]
                c = C[j]
                if dst_port[e] == 0:
                    W0[j] = w0 = g * W0[j] + c
                    W1[j] = w1 = g * W1[j]
                    Y0H[j] = y0h = g * Y0H[j] + c * h
                    y1v = Y1V[j]
                else:
                    W1[j] = w1 = g * W1[j] + c
                    W0[j] = w0 = g * W0[j]
                    Y1V[j] = y1v = g * Y1V[j] + c * v
                    y0h = Y0H[j]
                draw[j]()
                z0h = sqrt(w0) * y0h
                z0v = 1j * (sqrt(w1) * y1v)
                p0 = z0h.real ** 2 + z0h.imag ** 2 + z0v.real ** 2 + z0v.imag ** 2
                if not p0 >= 1e-30:
                    raise _vanished(p0, 0.0)
                inv = 1.0 / sqrt(p0)
                h = z0h * inv
                v = z0v * inv
                e = 2 * j
            elif k > DETECTOR:
                # adaptive_update
                g = G[j]
                c = C[j]
                if dst_port[e] == 0:
                    W0[j] = w0 = g * W0[j] + c
                    W1[j] = w1 = g * W1[j]
                    Y0H[j] = y0h = g * Y0H[j] + c * h
                    Y0V[j] = y0v = g * Y0V[j] + c * v
                    y1h = Y1H[j]
                    y1v = Y1V[j]
                else:
                    W1[j] = w1 = g * W1[j] + c
                    W0[j] = w0 = g * W0[j]
                    Y1H[j] = y1h = g * Y1H[j] + c * h
                    Y1V[j] = y1v = g * Y1V[j] + c * v
                    y0h = Y0H[j]
                    y0v = Y0V[j]
                u = draw[j]()
                a = sqrt(w0)
                b = sqrt(w1)
                if k == BS:
                    v0h = a * y0h
                    v0v = a * y0v
                    v1h = b * y1h
                    v1v = b * y1v
                    z0h = (v0h + 1j * v1h) * s
                    z0v = (v0v + 1j * v1v) * s
                    z1h = (1j * v0h + v1h) * s
                    z1v = (1j * v0v + v1v) * s
                else:
                    z0h = a * y0h
                    z0v = 1j * (b * y1v)
                    z1h = b * y1h
                    z1v = 1j * (a * y0v)
                # _pick_port
                p0 = z0h.real ** 2 + z0h.imag ** 2 + z0v.real ** 2 + z0v.imag ** 2
                p1 = z1h.real ** 2 + z1h.imag ** 2 + z1v.real ** 2 + z1v.imag ** 2
                total = p0 + p1
                if not total >= 1e-30:  # also catches a NaN total
                    raise _vanished(p0, p1)
                if u < p0 / total:
                    inv = 1.0 / sqrt(p0)
                    h = z0h * inv
                    v = z0v * inv
                    e = 2 * j
                else:
                    inv = 1.0 / sqrt(p1)
                    h = z1h * inv
                    v = z1v * inv
                    e = 2 * j + 1
            elif k == DETECTOR:
                site = site_of[j]
                counts[site] += 1
                if taps_enabled:
                    t2[x2][site] += 1
                break
            else:
                unit = net.units[e // 2]
                raise UnwiredPort(f"particle reached dangling port {e % 2} "
                                  f"of {type(unit).__name__}")
    if sum(counts.values()) + removed != n_particles:
        raise QwalkError("conservation breach: emitted != detected + removed")
    for j, unit in enumerate(net.units):
        if G[j] is None:
            continue
        w0, w1 = W0[j], W1[j]
        state = unit.state
        state.w0, state.w1 = w0, w1
        state.y0h, state.y0v = Y0H[j], Y0V[j]
        state.y1h, state.y1v = Y1H[j], Y1V[j]
        y0 = math.hypot(abs(Y0H[j]), abs(Y0V[j]))
        y1 = math.hypot(abs(Y1H[j]), abs(Y1V[j]))
        # written so that a NaN register fails the test too
        if not (abs(w0 + w1 - 1.0) <= 1e-12 and 0.0 <= w0 <= 1.0
                and 0.0 <= w1 <= 1.0 and y0 <= 1.0 + 1e-12 and y1 <= 1.0 + 1e-12):
            raise QwalkError(
                f"register invariant breach at {type(unit).__name__} {j}: "
                f"w0={w0!r}, w1={w1!r}, |y0|={y0!r}, |y1|={y1!r}")
    return RunResult(counts, t2, removed)
