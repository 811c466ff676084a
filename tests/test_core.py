"""Unit ops: register updates, routing, stateless transforms, rng streams."""
import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwalk.core import (
    AdaptiveState,
    Message,
    RngStream,
    adaptive_update,
    bs_route,
    derive_seed,
    hadamard_apply,
    pbs_route,
)
from qwalk.errors import DegenerateAmplitude

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def norm(m: Message) -> float:
    h, v = m
    return math.sqrt(h.real * h.real + h.imag * h.imag
                     + v.real * v.real + v.imag * v.imag)


def normalized(m: Message) -> Message:
    n = norm(m)
    return Message(m.c_h / n, m.c_v / n)


def phase_shift(phi: float, m: Message) -> Message:
    """A phase shifter's transform: the whole message times e^{i phi}."""
    f = complex(math.cos(phi), math.sin(phi))
    return Message(f * m.c_h, f * m.c_v)


def beam_splitter_unitary() -> np.ndarray:
    """4x4 beam-splitter unitary in (port, polarization) = (0h, 0v, 1h, 1v) order."""
    m_bs = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) * INV_SQRT2
    return np.kron(m_bs, np.eye(2, dtype=complex))


def pbs_unitary() -> np.ndarray:
    """4x4 polarizing-beam-splitter unitary: h transmitted, v reflected with phase i."""
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1.0       # out0h <- in0h
    u[1, 3] = 1.0j      # out0v <- i * in1v
    u[2, 2] = 1.0       # out1h <- in1h
    u[3, 1] = 1.0j      # out1v <- i * in0v
    return u


H_IN = Message(1.0 + 0.0j, 0.0 + 0.0j)
V_IN = Message(0.0 + 0.0j, 1.0 + 0.0j)


def make_state(gamma, w, y0, y1):
    state = AdaptiveState(gamma)
    state.w0, state.w1 = w
    state.y0h, state.y0v = y0
    state.y1h, state.y1v = y1
    return state


# --- register update -----------------------------------------------------------

def test_zero_learning_rate_is_memoryless():
    state = make_state(0.0, (0.3, 0.7), (0.2 + 0.1j, 0.4), (0.5, 0.6j))
    adaptive_update(state, 0, H_IN)
    assert (state.w0, state.w1) == (1.0, 0.0)
    assert (state.y0h, state.y0v) == (1.0 + 0.0j, 0.0 + 0.0j)
    # the other port's averaged message is untouched
    assert (state.y1h, state.y1v) == (0.5, 0.6j)

def test_half_learning_rate_arithmetic():
    state = make_state(0.5, (0.5, 0.5), (0, 0), (0, 0))
    adaptive_update(state, 1, V_IN)
    assert (state.w0, state.w1) == (0.25, 0.75)
    assert state.y1v == 0.5

def test_repeated_arrivals_converge_geometrically():
    gamma = 0.95
    state = AdaptiveState(gamma)
    for _ in range(1000):
        adaptive_update(state, 0, H_IN)
    bound = gamma ** 1000 + 1e-12
    assert abs(state.y0h - 1.0) < bound
    assert abs(state.w0 - 1.0) < bound
    assert abs(state.w1) < bound

def test_invalid_port_rejected():
    with pytest.raises(ValueError):
        adaptive_update(AdaptiveState(0.5), 2, H_IN)

def test_learning_rate_range_enforced():
    with pytest.raises(ValueError):
        AdaptiveState(1.0)
    with pytest.raises(ValueError):
        AdaptiveState(-0.1)

@given(st.lists(st.tuples(st.integers(0, 1),
                          st.floats(0, 2 * math.pi),
                          st.floats(0, 2 * math.pi)),
                min_size=1, max_size=60),
       st.floats(0.0, 0.99))
@settings(max_examples=80, deadline=None)
def test_update_preserves_register_invariants(arrivals, gamma):
    state = AdaptiveState(gamma)
    for port, theta, phase in arrivals:
        m = Message(math.cos(theta) * cmath.exp(1j * phase), math.sin(theta))
        adaptive_update(state, port, m)
        assert abs(state.w0 + state.w1 - 1.0) < 1e-12
        assert -1e-12 <= state.w0 <= 1.0 + 1e-12
        assert -1e-12 <= state.w1 <= 1.0 + 1e-12
        assert abs(state.y0h) ** 2 + abs(state.y0v) ** 2 <= 1.0 + 1e-9
        assert abs(state.y1h) ** 2 + abs(state.y1v) ** 2 <= 1.0 + 1e-9


# --- beam-splitter routing ------------------------------------------------------

def test_single_port_feed_splits_evenly_with_quarter_phase():
    state = make_state(0.9, (1.0, 0.0), (1.0, 0.0), (0.0, 0.0))
    port_a, m_a = bs_route(state, 0, H_IN, u=0.49)
    port_b, m_b = bs_route(state, 0, H_IN, u=0.51)
    assert (port_a, port_b) == (0, 1)
    assert m_a == Message(1.0 + 0.0j, 0.0 + 0.0j)
    phase = cmath.phase(m_b.c_h) - cmath.phase(m_a.c_h)
    assert abs(abs(phase) - math.pi / 2) < 1e-12

@pytest.mark.parametrize("delta,expected_port", [(0.0, 1), (math.pi, 0)])
def test_balanced_coherent_feed_interferes(delta, expected_port):
    # two rails with relative phase i*e^{i delta}: fully constructive on one port
    y1 = 1j * cmath.exp(1j * delta)
    state = make_state(0.9, (0.5, 0.5), (1.0, 0.0), (y1, 0.0))
    # independent 2x2 check: M_bs @ (1, i e^{i delta})/sqrt(2)
    m_bs = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    z = m_bs @ np.array([1.0, y1]) / math.sqrt(2)
    p = np.abs(z) ** 2
    assert p[1 - expected_port] == pytest.approx(0.0, abs=1e-12)
    for u in (0.0, 0.3, 0.9999):
        port, m_out = bs_route(state, 0, H_IN, u)
        assert port == expected_port
        assert abs(norm(m_out) - 1.0) < 1e-12

def test_routing_matches_four_by_four_unitary():
    rng = RngStream(2024)
    u_bs = beam_splitter_unitary()
    for _ in range(200):
        state = AdaptiveState(0.9)
        for _ in range(5):
            m = normalized(Message(
                complex(rng.random() - 0.5, rng.random() - 0.5),
                complex(rng.random() - 0.5, rng.random() - 0.5)))
            adaptive_update(state, int(rng.random() < 0.5), m)
        v = np.array([math.sqrt(state.w0) * state.y0h,
                      math.sqrt(state.w0) * state.y0v,
                      math.sqrt(state.w1) * state.y1h,
                      math.sqrt(state.w1) * state.y1v])
        z = u_bs @ v
        p0, p1 = abs(z[0])**2 + abs(z[1])**2, abs(z[2])**2 + abs(z[3])**2
        threshold = p0 / (p0 + p1)
        eps = 1e-9
        if threshold > eps:
            port, m_out = bs_route(state, 0, H_IN, threshold - eps)
            assert port == 0
            expected = z[:2] / math.sqrt(p0)
            assert m_out.c_h == pytest.approx(expected[0], abs=1e-9)
            assert m_out.c_v == pytest.approx(expected[1], abs=1e-9)
        if threshold < 1 - eps:
            port, m_out = bs_route(state, 0, H_IN, threshold + eps)
            assert port == 1
            expected = z[2:] / math.sqrt(p1)
            assert m_out.c_h == pytest.approx(expected[0], abs=1e-9)
            assert m_out.c_v == pytest.approx(expected[1], abs=1e-9)

unit_messages = st.builds(
    lambda theta, alpha, beta: Message(math.cos(theta) * cmath.exp(1j * alpha),
                                       math.sin(theta) * cmath.exp(1j * beta)),
    st.floats(0, math.pi / 2), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))

@given(st.lists(st.tuples(st.integers(0, 1), unit_messages), min_size=1, max_size=30),
       st.floats(0.0, 0.99), st.floats(0.0, 1.0, exclude_max=True),
       unit_messages, st.floats(-10.0, 10.0))
@settings(max_examples=150, deadline=None)
# a draw of 0.0 takes the port whose p = (4.5e-160) ** 2 is subnormal
@example(arrivals=[(1, Message(1 + 0j, 4.479587625619944e-160 + 0j))], gamma=0.0,
         u=0.0, m=Message(1 + 0j, 0j), phi=0.0)
def test_units_emit_unit_norm_messages(arrivals, gamma, u, m, phi):
    # registers reached by any sequence of unit-norm arrivals are valid;
    # routing from them, and every stateless unit, emits a unit-norm message
    state = AdaptiveState(gamma)
    for port, arrival in arrivals:
        adaptive_update(state, port, arrival)
    amplitude = (state.w0 * (abs(state.y0h) ** 2 + abs(state.y0v) ** 2)
                 + state.w1 * (abs(state.y1h) ** 2 + abs(state.y1v) ** 2))
    assume(amplitude > 1e-12)  # averaged messages can cancel to ~0 only by fine tuning
    for route in (bs_route, pbs_route):
        port, out = route(state, 0, m, u)
        assert port in (0, 1)
        assert abs(norm(out) - 1.0) < 1e-9
    for out in (phase_shift(phi, m), hadamard_apply(m)):
        assert abs(norm(out) - 1.0) < 1e-9

def test_unadapted_state_is_degenerate_without_update():
    with pytest.raises(DegenerateAmplitude):
        bs_route(AdaptiveState(0.9), 0, H_IN, 0.5)

@pytest.mark.parametrize("route", [bs_route, pbs_route])
def test_nan_amplitudes_are_degenerate(route):
    # a NaN total must not fall through to a silent choice of port 1
    state = make_state(0.9, (0.5, 0.5), (complex(math.nan, 0.0), 0.0), (1.0, 0.0))
    with pytest.raises(DegenerateAmplitude):
        route(state, 0, H_IN, 0.5)

def test_update_before_route_avoids_degeneracy():
    state = AdaptiveState(0.9)
    adaptive_update(state, 0, H_IN)
    port, m = bs_route(state, 0, H_IN, 0.3)
    assert port in (0, 1)
    assert abs(norm(m) - 1.0) < 1e-9


# --- polarizing-beam-splitter routing ----------------------------------------

def test_h_transmits():
    state = make_state(0.9, (1.0, 0.0), (1.0, 0.0), (0.0, 0.0))
    for u in (0.0, 0.5, 0.999):
        port, m = pbs_route(state, 0, H_IN, u)
        assert port == 0
        assert m == Message(1.0 + 0.0j, 0.0 + 0.0j)

def test_v_reflects_with_quarter_phase():
    state = make_state(0.9, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    for u in (0.0, 0.5, 0.999):
        port, m = pbs_route(state, 0, V_IN, u)
        assert port == 1
        assert m.c_h == 0.0
        assert m.c_v == pytest.approx(cmath.exp(1j * math.pi / 2), abs=1e-12)

def test_h_and_v_rails_merge_onto_one_port():
    state = make_state(0.9, (0.5, 0.5), (1.0, 0.0), (0.0, 1.0))
    u_pbs = pbs_unitary()
    v = np.array([math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])
    z = u_pbs @ v
    assert abs(z[2]) ** 2 + abs(z[3]) ** 2 == pytest.approx(0.0, abs=1e-12)
    for u in (0.0, 0.7, 0.9999):
        port, m = pbs_route(state, 0, H_IN, u)
        assert port == 0
        assert m.c_h == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert m.c_v == pytest.approx(1j * math.sqrt(0.5), abs=1e-12)


@given(st.lists(unit_messages, min_size=1, max_size=20),
       st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=20),
       st.floats(0.0, 0.99), st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_pbs_fed_pure_rails_emits_pure_polarization(messages, phases, gamma, u):
    # a PBS fed on port 0 only (any messages) emits pure h on port 0 and
    # pure v on port 1; fed only pure h on port 0, or only pure v on port 1,
    # it emits everything on port 0 in that same pure polarization.  These
    # are the feeds of the first splitting PBS and of the two merges behind
    # the t2 taps of the polarized network.
    split = AdaptiveState(gamma)
    for arrival in messages:
        adaptive_update(split, 0, arrival)
        port, out = pbs_route(split, 0, arrival, u)
        assert (out.c_v if port == 0 else out.c_h) == 0
    merge_h = AdaptiveState(gamma)
    merge_v = AdaptiveState(gamma)
    for phase in phases:
        h = Message(cmath.exp(1j * phase), 0j)
        v = Message(0j, cmath.exp(1j * phase))
        adaptive_update(merge_h, 0, h)
        adaptive_update(merge_v, 1, v)
        port, out = pbs_route(merge_h, 0, h, u)
        assert port == 0 and out.c_v == 0 and abs(abs(out.c_h) - 1.0) < 1e-12
        port, out = pbs_route(merge_v, 1, v, u)
        assert port == 0 and out.c_h == 0 and abs(abs(out.c_v) - 1.0) < 1e-12


# --- stateless transforms -------------------------------------------------------

def test_phase_shift_examples():
    assert phase_shift(0.0, H_IN) == H_IN
    m = Message(1 / math.sqrt(2), 1 / math.sqrt(2))
    flipped = phase_shift(math.pi, m)
    assert flipped.c_h == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    assert flipped.c_v == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    rotated = phase_shift(math.pi / 2, H_IN)
    assert rotated.c_h == pytest.approx(1j, abs=1e-12)

def test_hadamard_columns_and_involution():
    plus = hadamard_apply(H_IN)
    assert plus.c_h == pytest.approx(1 / math.sqrt(2))
    assert plus.c_v == pytest.approx(1 / math.sqrt(2))
    minus = hadamard_apply(V_IN)
    assert minus.c_v == pytest.approx(-1 / math.sqrt(2))
    twice = hadamard_apply(hadamard_apply(Message(0.6, 0.8j)))
    assert twice.c_h == pytest.approx(0.6, abs=1e-12)
    assert twice.c_v == pytest.approx(0.8j, abs=1e-12)

@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi),
       st.floats(0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_transforms_preserve_norm(theta, alpha, phi):
    m = Message(math.cos(theta) * cmath.exp(1j * alpha), math.sin(theta))
    assert abs(norm(phase_shift(phi, m)) - 1.0) < 1e-9
    assert abs(norm(hadamard_apply(m)) - 1.0) < 1e-9


# --- unitaries and streams ------------------------------------------------------

@pytest.mark.parametrize("u", [beam_splitter_unitary(), pbs_unitary()])
def test_unit_matrices_are_unitary(u):
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

def test_same_seed_same_sequence():
    a = RngStream(999)
    b = RngStream(999)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

@pytest.mark.parametrize("seed", [1.5, 2.0, True, "7", None])
def test_stream_seed_must_be_an_int(seed):
    # a float gave "unsupported operand type(s) for &", and a bool seeded
    # the stream of 1
    with pytest.raises(TypeError, match=f"^seed must be an int, "
                                        f"got {type(seed).__name__}$"):
        RngStream(seed)

def test_derived_streams_differ():
    base = RngStream(999)
    seqs = [[base.derive(i).random() for _ in range(10)] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert seqs[i] != seqs[j]

def test_stream_makes_its_generator_on_first_use(monkeypatch):
    # the compiled kernel reads a stream's seed alone, so a run on it seeds
    # no random.Random; the first draw makes the generator, whose sequence
    # is that of random.Random(seed)
    from qwalk import _kernel
    from qwalk.network import build_robens, run

    assert _kernel.load() is not None, "the compiled kernel did not load"
    made = []
    real = random.Random

    class Counted(real):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    rng = RngStream(31)
    run(build_robens(0.95), 200, rng.derive(0))
    assert made == []
    expected = real(rng.seed)
    assert [rng.random() for _ in range(5)] == [expected.random() for _ in range(5)]
    assert made == [rng.seed]
    rng.random()
    assert made == [rng.seed]

@pytest.mark.parametrize("args,name,got", [
    ((1.5, 0), "seed", "float"),
    ((True, 0), "seed", "bool"),
    ((7, 1.5), "index", "float"),
    ((7, 0, "2"), "index", "str"),
], ids=["float seed", "bool seed", "float index", "str index"])
def test_seed_derivation_takes_ints(args, name, got):
    # a float seed gave "unsupported operand type(s) for &", and a float
    # index was truncated
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {got}$"):
        derive_seed(*args)

def test_seed_derivation_is_stable():
    # frozen so a refactor cannot silently change every seeded result
    assert derive_seed(123456789, 0) == 11816457411822998322
    assert derive_seed(123456789, 1, 2) == 15209798135331412252


def test_unit_port_arities():
    from qwalk.core import (BeamSplitter, Detector, HadamardUnit, PhaseShifter,
                            PolarizingBeamSplitter, Source)

    assert (Source.n_inputs, len(Source().out)) == (0, 1)
    assert (PhaseShifter.n_inputs, len(PhaseShifter(0.3).out)) == (1, 1)
    assert (HadamardUnit.n_inputs, len(HadamardUnit().out)) == (1, 1)
    assert (BeamSplitter.n_inputs, len(BeamSplitter(0.9).out)) == (2, 2)
    assert (PolarizingBeamSplitter.n_inputs,
            len(PolarizingBeamSplitter(0.9).out)) == (2, 2)
    assert (Detector.n_inputs, len(Detector(0).out)) == (1, 0)

@pytest.mark.parametrize("gamma", [1.0, -0.1, math.nan])
def test_splitters_check_the_learning_rate(gamma):
    from qwalk.core import BeamSplitter, PolarizingBeamSplitter

    for unit in (AdaptiveState, BeamSplitter, PolarizingBeamSplitter):
        with pytest.raises(ValueError) as exc:
            unit(gamma)
        assert str(exc.value) == f"learning rate must be in [0, 1), got {gamma}"

def test_splitter_registers_exist_from_the_first_run():
    # a splitter holds no registers; run() gives each one fresh ones in the
    # registers it returns, and the plan holds its gamma
    from qwalk.core import BeamSplitter
    from qwalk.network import _plan, build_jeong, run

    net = build_jeong(2, 0.3, -0.7, 0.9)
    splitters = [j for j, u in enumerate(net.units) if isinstance(u, BeamSplitter)]
    assert splitters and BeamSplitter.__slots__ == ("gamma", "out")
    assert all(not hasattr(net.units[j], "state") for j in splitters)
    reg = run(net, 10, RngStream(3)).registers
    assert len(reg) == 10 * (len(net.units) + 1)
    assert all(abs(reg[10 * j] + reg[10 * j + 1] - 1.0) <= 1e-12
               and _plan(net).gamma[j] == 0.9 for j in splitters)


# --- the arithmetic both event loops share -------------------------------------
#
# A real times a complex is two products and i * z is (-z.imag, z.real), as
# the compiled kernel computes them; the expected doubles below are built
# from float products alone, so they do not depend on how the interpreter
# multiplies a float by a complex (CPython 3.10 to 3.13 promote the float to
# complex(x, 0.0), which can flip the sign of a zero part).

PARTS = [-0.0, 0.0, 0.6, -0.8]


def promoted(x, z):
    """x * z with x promoted to complex(x, 0.0), written out."""
    return complex(x * z.real - 0.0 * z.imag, x * z.imag + 0.0 * z.real)


def parts(*values):
    """repr of the real and imaginary parts, which tells -0.0 from 0.0."""
    return repr([(v.real, v.imag) if isinstance(v, complex) else v for v in values])


def signed_zero_messages():
    return [Message(complex(a, b), complex(c, d))
            for a in PARTS for b in PARTS for c in PARTS[:2] for d in PARTS[:2]]


def test_update_is_two_products_per_part():
    differs = False
    for m in signed_zero_messages():
        for y in (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.3, 0.0)):
            for port in (0, 1):
                state = make_state(0.5, (0.5, 0.5), (y, y), (y, y))
                adaptive_update(state, port, m)
                expected = [complex(0.5 * y.real + 0.5 * z.real,
                                    0.5 * y.imag + 0.5 * z.imag) for z in m]
                got = [state.y0h, state.y0v] if port == 0 else [state.y1h, state.y1v]
                assert parts(*got) == parts(*expected)
                differs |= parts(*got) != parts(*(promoted(0.5, y) + promoted(0.5, z)
                                                  for z in m))
    assert differs  # the inputs tell the two rules apart


def promoted_i(z):
    """1j * z as complex * complex, written out."""
    return complex(0.0 * z.real - 1.0 * z.imag, 0.0 * z.imag + 1.0 * z.real)


def amplitudes(route, a, b, y0h, y0v, y1h, y1v, mul, muli):
    """z0h, z0v, z1h, z1v of ``route`` for the products ``mul`` and ``muli``."""
    s = INV_SQRT2
    v0h, v0v, v1h, v1v = mul(a, y0h), mul(a, y0v), mul(b, y1h), mul(b, y1v)
    if route is bs_route:
        return (mul(s, v0h + muli(v1h)), mul(s, v0v + muli(v1v)),
                mul(s, muli(v0h) + v1h), mul(s, muli(v0v) + v1v))
    return v0h, muli(v1v), v1h, muli(v0v)


@pytest.mark.parametrize("route", [bs_route, pbs_route])
def test_routing_is_two_products_and_a_swap(route):
    # w1 = 0.0 makes b = 0.0, so b * y1 has zero parts of y1's signs
    def mul(x, z):
        return complex(x * z.real, x * z.imag)

    def muli(z):
        return complex(-z.imag, z.real)

    differs = False
    for m in signed_zero_messages():
        for y1 in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            state = make_state(0.9, (1.0, 0.0), m, (y1, y1))
            z = amplitudes(route, 1.0, 0.0, *m, y1, y1, mul, muli)
            p = [sum(x.real * x.real + x.imag * x.imag for x in z[2 * k:2 * k + 2])
                 for k in (0, 1)]
            if p[0] + p[1] < 1e-30:
                continue
            port, out = route(state, 0, m, 0.0 if p[0] else 0.5)
            assert p[port] > 0.0
            inv = 1.0 / math.sqrt(p[port])
            expected = [mul(inv, x) for x in z[2 * port:2 * port + 2]]
            assert parts(*out) == parts(*expected)
            old = amplitudes(route, 1.0, 0.0, *m, y1, y1, promoted, promoted_i)
            differs |= parts(*out) != parts(*(promoted(inv, x)
                                               for x in old[2 * port:2 * port + 2]))
    assert differs  # the inputs tell the two rules apart


def test_hadamard_is_sums_times_a_real():
    s = INV_SQRT2
    for m in signed_zero_messages():
        h, v = m
        expected = [complex((h.real + v.real) * s, (h.imag + v.imag) * s),
                    complex((h.real - v.real) * s, (h.imag - v.imag) * s)]
        assert parts(*hadamard_apply(m)) == parts(*expected)
