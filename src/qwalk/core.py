"""Event-level building blocks: messages, adaptive registers, and processing units.

A particle is a single event carrier.  It holds a two-component complex
message (a Jones vector: horizontal and vertical amplitude) and moves through
a network of processing units one unit at a time.  Stateless units (phase
shifters, polarization Hadamards) transform the message.  Adaptive units
(beam splitters, polarizing beam splitters) keep per-port registers — two
relative-frequency weights and two averaged messages — that learn from the
stream of arriving particles; the registers, not the instantaneous message,
decide through which port a particle leaves.  This local memory is the only
channel by which successive particles influence each other, and it is what
makes the detector statistics converge to interference patterns.

Register update for an arrival on port k with message m (learning rate g):

    w_k   <- g*w_k + (1-g)        w_other <- g*w_other
    y_k   <- g*y_k + (1-g)*m      y_other unchanged

Routing builds the length-4 vector v = (sqrt(w0)*y0, sqrt(w1)*y1), applies
the unit's 4x4 unitary in (port x polarization) ordering, and emits on port k
with probability |z_k|^2 / (|z_0|^2 + |z_1|^2), carrying z_k normalized.
With g = 0 the registers are memoryless and every unit behaves like a fair
classical splitter; g near 1 reproduces wave statistics.

Registers start at w = (1/2, 1/2) and y = 0.  Because the update precedes
routing, the first arrival already gives a nonzero routing vector, and a
register component that never receives amplitude stays exactly zero — so
ports that carry no amplitude in the wave picture have routing probability
exactly 0.0 and particles are conserved exactly.
"""
from __future__ import annotations

import math
from typing import NamedTuple

# hashlib's blake2b is this builtin one; importing hashlib would also load
# OpenSSL, which nothing here uses
from _blake2 import blake2b

from .errors import DegenerateAmplitude, QwalkError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MIN_NORMAL = 2.0 ** -1022
_UPSCALE = 2.0 ** 600
_MASK64 = (1 << 64) - 1


class Message(NamedTuple):
    """Unit-norm two-component complex payload carried by a particle."""

    c_h: complex
    c_v: complex


#: message emitted by every source: h-polarized, no global phase
SOURCE_MESSAGE = Message(1.0 + 0.0j, 0.0 + 0.0j)


#: the state every child seed's hash starts from: a copy is cheaper than a
#: new blake2b
_BLAKE2B_8 = blake2b(digest_size=8)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent 64-bit child seed from a parent seed and indices.

    blake2b keyed on the parent seed plus the index path; deterministic and
    platform independent, so replicate and per-unit streams never collide.
    The seed and every index must be an ``int`` (not a ``bool``), and an
    index must fit in 64 signed bits.
    """
    _check_int("seed", seed)
    h = _BLAKE2B_8.copy()
    h.update((seed & _MASK64).to_bytes(8, "little"))
    for ix in indices:
        _check_int("index", ix)
        h.update(ix.to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Seeded uniform-deviate stream with deterministic child derivation.

    Identical seeds give identical sequences.  ``derive(i)`` returns a new
    independent stream; the derivation is a hash of (seed, i), so streams for
    distinct replicates or units never share state.  The generator is made
    the first time ``random`` (or ``_gen``) is read: the compiled kernel
    reads only ``seed``.
    """

    __slots__ = ("seed", "_gen", "random")

    def __init__(self, seed: int):
        _check_int("seed", seed)
        self.seed = seed & _MASK64

    def __getattr__(self, name: str):
        # called only while a slot is unset, that is before the first use
        if name not in ("_gen", "random"):
            raise AttributeError(name)
        import random  # only the Python loop draws from the generator

        self._gen = random.Random(self.seed)
        self.random = self._gen.random  # bound method, hot path
        return getattr(self, name)

    def derive(self, *indices: int) -> "RngStream":
        return RngStream(derive_seed(self.seed, *indices))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def _check_int(name: str, value) -> None:
    """Raise TypeError unless ``value`` is an ``int``; a ``bool`` is not."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_phases(**phases: float) -> None:
    """Raise ValueError unless every phase is finite."""
    if not all(math.isfinite(phi) for phi in phases.values()):
        got = ", ".join(f"{name}={phi}" for name, phi in phases.items())
        raise ValueError(f"phases must be finite, got {got}")


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"learning rate must be in [0, 1), got {gamma}")


class AdaptiveState:
    """Per-unit registers: two arrival-frequency weights, two averaged messages.

    Invariants kept by ``adaptive_update``: w0 + w1 == 1, 0 <= w <= 1, and
    each averaged message has norm <= 1 (convex average of unit vectors).
    ``network.run`` checks them, to rounding, at the end of every run.

    A run keeps its registers in one array of doubles
    (``network.RunResult.registers``); only the Python loop
    (``network._loop``) makes an ``AdaptiveState`` of each adaptive unit's
    registers, for the core functions, and writes them back at its end.
    """

    __slots__ = ("w0", "w1", "y0h", "y0v", "y1h", "y1v", "gamma")

    def __init__(self, gamma: float):
        _check_gamma(gamma)
        self.gamma = gamma
        self.w0 = 0.5
        self.w1 = 0.5
        self.y0h = 0.0 + 0.0j
        self.y0v = 0.0 + 0.0j
        self.y1h = 0.0 + 0.0j
        self.y1v = 0.0 + 0.0j

    def __repr__(self) -> str:
        return (f"AdaptiveState(w=({self.w0:.4f},{self.w1:.4f}), "
                f"y0=({self.y0h:.4f},{self.y0v:.4f}), "
                f"y1=({self.y1h:.4f},{self.y1v:.4f}), gamma={self.gamma})")


def adaptive_update(state: AdaptiveState, port: int, m: Message) -> AdaptiveState:
    """Fold an arrival on ``port`` into the registers; returns the same state.

    Exponentially weighted averaging with rate (1 - gamma): the weight of the
    arrival port moves toward 1, the other toward 0, and the arrival port's
    averaged message moves toward m.  gamma = 0 makes the unit memoryless.
    """
    g = state.gamma
    c = 1.0 - g
    h, v = m
    if port == 0:
        state.w0 = g * state.w0 + c
        state.w1 = g * state.w1
        y = state.y0h
        state.y0h = complex(g * y.real + c * h.real, g * y.imag + c * h.imag)
        y = state.y0v
        state.y0v = complex(g * y.real + c * v.real, g * y.imag + c * v.imag)
    elif port == 1:
        state.w1 = g * state.w1 + c
        state.w0 = g * state.w0
        y = state.y1h
        state.y1h = complex(g * y.real + c * h.real, g * y.imag + c * h.imag)
        y = state.y1v
        state.y1v = complex(g * y.real + c * v.real, g * y.imag + c * v.imag)
    else:
        raise ValueError(f"port must be 0 or 1, got {port}")
    return state


def bs_route(state: AdaptiveState, in_port: int, m: Message, u: float) -> tuple[int, Message]:
    """Route a particle through a 50:50 beam splitter after the register update.

    The output port mixes the two input ports: z = (M_bs tensor I2) v with
    M_bs = [[1, i], [i, 1]]/sqrt(2), v = (sqrt(w0)*y0, sqrt(w1)*y1).  Emits on
    port 0 iff u < p0/(p0+p1) where p_k = |z_k|^2; the emitted message is z_k
    normalized.  ``in_port`` and ``m`` were already absorbed into the state by
    adaptive_update and do not enter the routing decision.
    """
    a = math.sqrt(state.w0)
    b = math.sqrt(state.w1)
    s = _INV_SQRT2
    y = state.y0h
    h0r, h0i = a * y.real, a * y.imag  # v0h
    y = state.y0v
    v0r, v0i = a * y.real, a * y.imag  # v0v
    y = state.y1h
    h1r, h1i = b * y.real, b * y.imag  # v1h
    y = state.y1v
    v1r, v1i = b * y.real, b * y.imag  # v1v
    # z0 = v0 + i*v1 and z1 = i*v0 + v1, times s; i*z is (-z.imag, z.real)
    return _pick_port((h0r - h1i) * s, (h0i + h1r) * s, (v0r - v1i) * s, (v0i + v1r) * s,
                      (h1r - h0i) * s, (h1i + h0r) * s, (v1r - v0i) * s, (v1i + v0r) * s,
                      u)


def pbs_route(state: AdaptiveState, in_port: int, m: Message, u: float) -> tuple[int, Message]:
    """Route through a polarizing beam splitter: h transmits, v reflects with phase i.

    Same pipeline as ``bs_route`` with the unitary
    z0 = (v0h, i*v1v), z1 = (v1h, i*v0v).
    """
    a = math.sqrt(state.w0)
    b = math.sqrt(state.w1)
    y0h, y1v, y1h, y0v = state.y0h, state.y1v, state.y1h, state.y0v
    return _pick_port(a * y0h.real, a * y0h.imag, -(b * y1v.imag), b * y1v.real,
                      b * y1h.real, b * y1h.imag, -(a * y0v.imag), a * y0v.real, u)


def _pick_port(h0r: float, h0i: float, v0r: float, v0i: float, h1r: float,
               h1i: float, v1r: float, v1i: float, u: float) -> tuple[int, Message]:
    """Port and message for the amplitudes z0 = (h0, v0) and z1 = (h1, v1).

    Each half comes as its real and imaginary parts.  A square is x * x,
    one IEEE product as in the kernel; x ** 2 would call libm's pow.
    """
    p0 = h0r * h0r + h0i * h0i + v0r * v0r + v0i * v0i
    p1 = h1r * h1r + h1i * h1i + v1r * v1r + v1i * v1i
    total = p0 + p1
    if not total >= 1e-30:  # also catches a NaN total
        raise _vanished(p0, p1)
    if u < p0 / total:
        return 0, _normalized(h0r, h0i, v0r, v0i, p0)
    return 1, _normalized(h1r, h1i, v1r, v1i, p1)


def _normalized(hr: float, hi: float, vr: float, vi: float, p: float) -> Message:
    """(h, v) / sqrt(p), h and v in parts, p their sum of squares from ``_pick_port``.

    A port is taken when u < p / total, so a small enough u (of
    ``random()``'s values, only 0.0) can take one whose p fell below the
    normal range (``_MIN_NORMAL``), where its squares lost bits.  Then p
    is summed again from (h, v) * 2**600, a scaling that is exact here
    and cancels in the quotient.
    """
    if p < _MIN_NORMAL:
        hr, hi, vr, vi = hr * _UPSCALE, hi * _UPSCALE, vr * _UPSCALE, vi * _UPSCALE
        p = hr * hr + hi * hi + vr * vr + vi * vi
    inv = 1.0 / math.sqrt(p)
    return Message(complex(hr * inv, hi * inv), complex(vr * inv, vi * inv))


def _vanished(p0: float, p1: float) -> DegenerateAmplitude:
    exc = DegenerateAmplitude(
        f"routing amplitudes vanished (p0={p0!r}, p1={p1!r})")
    exc.p0, exc.p1 = p0, p1
    return exc


def _vanished_at(unit, j: int, particle: int, n_particles: int, p0: float,
                 p1: float) -> DegenerateAmplitude:
    """The error of a run whose unit j, ``unit``, met ``_vanished`` on a particle.

    ``particle`` counts from 0.  Both amplitudes exactly 0.0 mean that the
    registers cancelled exactly, which some learning rates and phases allow
    (a gamma of 0.5 with real phases on the mesh); the model does not
    define a port for that case.
    """
    text = (f"routing amplitudes vanished at {type(unit).__name__} {j} on particle "
            f"{particle + 1} of {n_particles} (p0={p0!r}, p1={p1!r})")
    if p0 == 0.0 and p1 == 0.0:
        text += "; these parameters allow the splitter's registers to cancel exactly"
    return DegenerateAmplitude(text)


def _not_unit(p: float) -> QwalkError:
    return QwalkError(f"a message of squared norm {p!r} reached a detector; "
                      "messages have unit norm to 1e-12")


def _untapped() -> QwalkError:
    return QwalkError("taps are on, but a particle reached a detector "
                      "without crossing t2")


def hadamard_apply(m: Message) -> Message:
    """Apply the polarization Hadamard: (h, v) -> ((h+v), (h-v))/sqrt(2)."""
    h, v = m
    a, b = h + v, h - v  # complex + and - act on the parts, as in the kernel
    s = _INV_SQRT2
    return Message(complex(a.real * s, a.imag * s), complex(b.real * s, b.imag * s))


# ---------------------------------------------------------------------------
# Processing units.  Units describe the graph: ``out`` holds one wire per
# output port, filled by the owning network, and ``n_inputs`` counts the
# input ports.  ``network.run`` compiles the graph into one set of flat
# tables (``network._plan``), which both event loops read, with
# bit-identical results: the Python loop ``network._loop``, which applies
# the functions above at every unit, or the compiled kernel
# (``_kernel.c``), which repeats their float operations and skips the terms
# of dead message halves.


class Source:
    """Emits h-polarized particles, one at a time.  0 inputs, 1 output."""

    __slots__ = ("out",)
    n_inputs = 0

    def __init__(self):
        self.out = [None]


class PhaseShifter:
    """Multiplies the passing message by e^{i phi}.  1 input, 1 output."""

    __slots__ = ("phi", "factor", "out")
    n_inputs = 1

    def __init__(self, phi: float):
        self.phi = phi
        self.factor = complex(math.cos(phi), math.sin(phi))
        self.out = [None]


class HadamardUnit:
    """Applies the polarization Hadamard.  1 input, 1 output."""

    __slots__ = ("out",)
    n_inputs = 1

    def __init__(self):
        self.out = [None]


class BeamSplitter:
    """Adaptive 50:50 beam splitter.  2 inputs, 2 outputs."""

    __slots__ = ("gamma", "out")
    n_inputs = 2

    def __init__(self, gamma: float):
        _check_gamma(gamma)
        self.gamma = gamma
        self.out = [None, None]


class PolarizingBeamSplitter(BeamSplitter):
    """Adaptive polarizing beam splitter: h transmits, v reflects with phase i."""

    __slots__ = ()


class Detector:
    """Counts and removes particles arriving at one lattice site.  1 input."""

    __slots__ = ("site", "out")
    n_inputs = 1

    def __init__(self, site: int):
        self.site = site
        self.out = []
