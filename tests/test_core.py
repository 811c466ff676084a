"""Unit ops: register updates, routing, stateless transforms, rng streams."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    phase_shift,
)
from qwalk.errors import DegenerateAmplitude

INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
        assert abs(m_out.norm() - 1.0) < 1e-12

def test_routing_matches_four_by_four_unitary():
    rng = RngStream(2024)
    u_bs = beam_splitter_unitary()
    for _ in range(200):
        state = AdaptiveState(0.9)
        for _ in range(5):
            m = Message(
                complex(rng.random() - 0.5, rng.random() - 0.5),
                complex(rng.random() - 0.5, rng.random() - 0.5)).normalized()
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
        assert abs(out.norm() - 1.0) < 1e-9
    for out in (phase_shift(phi, m), hadamard_apply(m)):
        assert abs(out.norm() - 1.0) < 1e-9

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
    assert abs(m.norm() - 1.0) < 1e-9


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
    assert abs(phase_shift(phi, m).norm() - 1.0) < 1e-9
    assert abs(hadamard_apply(m).norm() - 1.0) < 1e-9


# --- unitaries and streams ------------------------------------------------------

@pytest.mark.parametrize("u", [beam_splitter_unitary(), pbs_unitary()])
def test_unit_matrices_are_unitary(u):
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

def test_same_seed_same_sequence():
    a = RngStream(999)
    b = RngStream(999)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

def test_derived_streams_differ():
    base = RngStream(999)
    seqs = [[base.derive(i).random() for _ in range(10)] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert seqs[i] != seqs[j]

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
