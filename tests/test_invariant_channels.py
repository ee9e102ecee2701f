from itertools import product

import numpy as np
import pytest

from sun_gates.invariant_channels import (
    CROSSING_AXES,
    Channel,
    ChannelSpec,
    adjoint_states,
    build_gates,
    build_projectors,
    charge_parity_bilinear,
    crossing_map,
    crossing_row_deviations,
    generator_form_projectors,
    s_channel,
    select_crossing_axes,
    singlet_state,
    swap_matrix,
    t_channel,
    u_exponential_form,
)
from sun_gates.sun_algebra import GeneratorSet, build_generators

SWAP_2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def both_channels(n):
    return [s_channel(n), t_channel(n)]


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(Channel.S, 1)
    with pytest.raises(TypeError):
        ChannelSpec("s", 3)


def test_projector_traces_small_cases():
    projs = build_projectors(s_channel(2))
    assert abs(np.trace(projs.p_plus) - 3.0) < 1e-14
    assert abs(np.trace(projs.p_minus) - 1.0) < 1e-14
    projs = build_projectors(t_channel(3))
    assert abs(np.trace(projs.p_plus) - 1.0) < 1e-14
    assert abs(np.trace(projs.p_minus) - 8.0) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_projector_set_invariants(n, kind):
    spec = ChannelSpec(kind, n)
    projs = build_projectors(spec)
    p, q = projs.p_plus, projs.p_minus
    eye = np.eye(n * n)
    assert np.abs(p @ p - p).max() <= 1e-12
    assert np.abs(q @ q - q).max() <= 1e-12
    assert np.abs(p @ q).max() <= 1e-12
    assert np.abs(p + q - eye).max() <= 1e-12
    if kind is Channel.S:
        expected = (n * (n + 1) / 2, n * (n - 1) / 2)
    else:
        expected = (1.0, float(n * n - 1))
    assert abs(np.trace(p).real - expected[0]) <= 1e-12
    assert abs(np.trace(q).real - expected[1]) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_index_form_matches_generator_form(n, kind):
    gens = build_generators(n)
    spec = ChannelSpec(kind, n)
    projs = build_projectors(spec)
    g_plus, g_minus = generator_form_projectors(spec, gens)
    assert np.abs(projs.p_plus - g_plus).max() <= 1e-12
    assert np.abs(projs.p_minus - g_minus).max() <= 1e-12


def test_swap_gate_is_the_permutation_matrix():
    gates = build_gates(s_channel(2))
    np.testing.assert_array_equal(gates.z_gate, SWAP_2)


@pytest.mark.parametrize("n", range(2, 7))
def test_swap_gate_acts_entrywise(n):
    gates = build_gates(s_channel(n))
    for i in range(n):
        for j in range(n):
            ket = np.zeros(n * n, dtype=complex)
            ket[i * n + j] = 1.0
            out = gates.z_gate @ ket
            expected = np.zeros(n * n, dtype=complex)
            expected[j * n + i] = 1.0
            assert np.abs(out - expected).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_gate_set_invariants(n, kind):
    gates = build_gates(ChannelSpec(kind, n))
    z = gates.z_gate
    eye = np.eye(n * n)
    assert np.abs(gates.s_identity - eye).max() <= 1e-12
    assert np.abs(z.conj().T @ z - eye).max() <= 1e-12
    assert np.abs(z @ z - gates.s_identity).max() <= 1e-12
    assert np.abs(z - z.conj().T).max() <= 1e-12
    # two-element group closure
    assert np.abs(gates.s_identity @ z - z).max() <= 1e-12
    assert np.abs(z @ gates.s_identity - z).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_charge_parity_spectrum(n):
    gates = build_gates(t_channel(n))
    evals = np.sort(np.linalg.eigvalsh(gates.z_gate))
    assert np.abs(evals[:-1] + 1.0).max() <= 1e-10
    assert abs(evals[-1] - 1.0) <= 1e-10
    # multiplicities separated by a gap much wider than 1e-6
    assert int(np.sum(evals > 0)) == 1
    assert int(np.sum(evals < 0)) == n * n - 1


def test_singlet_state_explicit_n2():
    expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(singlet_state(2), expected, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_singlet_state_properties(n):
    psi = singlet_state(n)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14
    projs = build_projectors(t_channel(n))
    gates = build_gates(t_channel(n))
    assert np.abs(gates.z_gate @ psi - psi).max() <= 1e-12
    assert np.abs(projs.p_plus @ psi - psi).max() <= 1e-12


def test_adjoint_state_from_diagonal_generator():
    # generator index 2 at N=2 is sigma_z / 2, so the state is (1,0,0,-1)/sqrt(2)
    states = adjoint_states(build_generators(2))
    expected = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(states[2], expected, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 6))
def test_adjoint_states_properties(n):
    gens = build_generators(n)
    states = adjoint_states(gens)
    gates = build_gates(t_channel(n))
    psi = singlet_state(n)
    assert states.shape == (n * n - 1, n * n)
    for state in states:
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        assert abs(np.vdot(psi, state)) <= 1e-12
        assert np.abs(gates.z_gate @ state + state).max() <= 1e-12
    # full Gram matrix of singlet + adjoint basis is the identity
    basis = np.vstack([psi, states])
    gram = basis.conj() @ basis.T
    assert np.abs(gram - np.eye(n * n)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthogonal_complement_has_eigenvalue_minus_one(n):
    projs = build_projectors(t_channel(n))
    gates = build_gates(t_channel(n))
    rng = np.random.default_rng(42 + n)
    for _ in range(5):
        vec = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        vec = projs.p_minus @ vec
        vec /= np.linalg.norm(vec)
        assert np.abs(gates.z_gate @ vec + vec).max() <= 1e-12


def test_charge_parity_bilinear_eigenvalues_n2():
    # two eigenvalues: 3/4 on the singlet, -1/4 on the adjoint complement
    gens = build_generators(2)
    x = charge_parity_bilinear(gens)
    psi = singlet_state(2)
    assert abs(np.vdot(psi, x @ psi) - 0.75) <= 1e-14
    evals = np.sort(np.linalg.eigvalsh(x))
    np.testing.assert_allclose(evals, [-0.25, -0.25, -0.25, 0.75], atol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_exponential_form_matches_gate_up_to_phase(n):
    gens = build_generators(n)
    gates = build_gates(t_channel(n))
    u_exp = u_exponential_form(gens)
    overlap = abs(np.einsum("ij,ij", gates.z_gate.conj(), u_exp)) / (n * n)
    assert overlap >= 1.0 - 1e-8


def test_exponential_form_squares_to_identity_up_to_phase():
    u_exp = u_exponential_form(build_generators(3))
    squared = u_exp @ u_exp
    phase = squared[0, 0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.abs(squared - phase * np.eye(9)).max() <= 1e-12


def test_exponential_form_rejects_three_eigenvalue_clusters():
    # shrinking one generator splits the adjoint eigenvalue, leaving three
    # clusters, which the channel pairing check must refuse
    mats = build_generators(2).generators.copy()
    mats[2] = mats[2] / 2.0
    broken = GeneratorSet(n=2, generators=mats)
    with pytest.raises(ValueError, match="clusters"):
        u_exponential_form(broken)


@pytest.mark.parametrize("n", range(2, 7))
def test_crossing_rows(n):
    s_gates = build_gates(s_channel(n))
    t_gates = build_gates(t_channel(n))
    projs = build_projectors(t_channel(n))
    eye = np.eye(n * n)
    crossed_identity = crossing_map(s_gates.s_identity)
    crossed_swap = crossing_map(s_gates.z_gate)
    assert np.abs(crossed_identity - (n / 2.0) * (eye + t_gates.z_gate)).max() <= 1e-12
    assert np.abs(crossed_identity - n * projs.p_plus).max() <= 1e-12
    assert np.abs(crossed_swap - eye).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossing_map_inverse_recovers_operator(n):
    rng = np.random.default_rng(n)
    op = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    assert np.abs(crossing_map(crossing_map(op), inverse=True) - op).max() == 0.0
    assert np.abs(crossing_map(crossing_map(op, inverse=True)) - op).max() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossing_selection_oracle_is_unique(n):
    winners = select_crossing_axes(n)
    assert winners == [CROSSING_AXES]


def test_crossing_map_rejects_bad_shapes():
    with pytest.raises(ValueError):
        crossing_map(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        crossing_map(np.zeros((5, 5)))


def test_swap_matrix_is_permutation():
    for n in (2, 3, 4):
        sw = swap_matrix(n)
        assert np.abs(sw @ sw - np.eye(n * n)).max() == 0.0
        assert np.array_equal(np.sort(np.abs(sw), axis=None)[-n * n:], np.ones(n * n))


@pytest.mark.parametrize("n", range(2, 6))
def test_constructions_match_index_loops(n):
    # the reshape and outer-product constructions equal the index formulas entry for entry
    d = n * n
    swap = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    assert np.array_equal(swap_matrix(n), swap)

    delta = lambda x, y: float(x == y)  # noqa: E731
    s_plus, s_minus, t_plus, t_minus = (np.zeros((d, d), dtype=complex) for _ in range(4))
    for i, j, r, s in product(range(n), repeat=4):
        # s-channel rows (i,j), columns (r,s); t-channel rows (k,i) = (i,j), columns (p,r) = (r,s)
        s_plus[i * n + j, r * n + s] = (delta(i, r) * delta(j, s) + delta(j, r) * delta(i, s)) / 2
        s_minus[i * n + j, r * n + s] = (delta(i, r) * delta(j, s) - delta(j, r) * delta(i, s)) / 2
        t_plus[i * n + j, r * n + s] = delta(i, j) * delta(r, s) / n
        t_minus[i * n + j, r * n + s] = delta(i, r) * delta(j, s) - delta(i, j) * delta(r, s) / n
    s_projs, t_projs = build_projectors(s_channel(n)), build_projectors(t_channel(n))
    assert np.array_equal(s_projs.p_plus, s_plus) and np.array_equal(s_projs.p_minus, s_minus)
    assert np.array_equal(t_projs.p_plus, t_plus) and np.array_equal(t_projs.p_minus, t_minus)

    rng = np.random.default_rng(n)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    crossed = np.zeros((d, d), dtype=complex)
    for a, b, c, e in product(range(n), repeat=4):
        crossed[a * n + b, c * n + e] = op[a * n + e, b * n + c]
    assert np.array_equal(crossing_map(op), crossed)

    s_gates, t_gates = build_gates(s_channel(n)), build_gates(t_channel(n))
    eye = np.eye(d, dtype=complex)
    inline = (np.abs(crossing_map(s_gates.s_identity) - (n / 2.0) * (eye + t_gates.z_gate)).max(),
              np.abs(crossing_map(s_gates.z_gate) - eye).max())
    assert np.array_equal(crossing_row_deviations(s_gates, t_gates), inline)



def test_generator_form_projectors_dimension_mismatch():
    with pytest.raises(ValueError):
        generator_form_projectors(s_channel(3), build_generators(2))
