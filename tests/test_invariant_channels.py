import json
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sun_gates import invariant_channels as channels
from sun_gates.invariant_channels import (
    CROSSING_AXES,
    AmplitudeCoefficients,
    Channel,
    ChannelSpec,
    build_projectors,
    charge_parity_bilinear,
    crossing_map,
    crossing_operator_deviation,
    crossing_row_deviations,
    generator_form_projectors,
    select_crossing_axes,
    swap_matrix,
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
    return [ChannelSpec(Channel.S, n), ChannelSpec(Channel.T, n)]


def test_channel_spec_validation():
    with pytest.raises(TypeError):
        ChannelSpec("s", 3)
    # one N rule for every library entry that takes N
    for make in (lambda n: ChannelSpec(Channel.T, n), build_generators,
                 lambda n: GeneratorSet(n=n, generators=build_generators(3).generators.copy())):
        with pytest.raises(ValueError, match="at least 2, got 1"):
            make(1)
        # a float N fails here with its value named, not deep in np.eye, z_gate or apply_z
        for bad in (3.0, np.float64(3.0), "3", None):
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                make(bad)
    assert ChannelSpec(Channel.T, np.int64(3)).apply_z(np.ones(9)).shape == (9,)
    # a numpy integer N is kept as a Python int, so a payload that carries it is JSON-ready
    for built in (ChannelSpec(Channel.T, np.int64(3)), build_generators(np.int64(3))):
        assert type(built.n) is int and json.dumps(built.n) == "3"


@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_channel_spec_stays_a_value(kind):
    # the cached Z is no field: reading it on one spec leaves equality, hash, dict lookup and repr alone
    read, unread = ChannelSpec(kind, 3), ChannelSpec(kind, 3)
    z = read.z_gate
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert {unread: "spec"}[read] == "spec" and len({read, unread}) == 1
    assert read.z_gate is z and not z.flags.writeable
    with pytest.raises(AttributeError):
        read.z_gate = np.eye(9)
    with pytest.raises(ValueError):
        z[0, 0] = 2.0


def test_projector_traces_small_cases():
    p_plus, p_minus = build_projectors(ChannelSpec(Channel.S, 2))
    assert abs(np.trace(p_plus) - 3.0) < 1e-14
    assert abs(np.trace(p_minus) - 1.0) < 1e-14
    p_plus, p_minus = build_projectors(ChannelSpec(Channel.T, 3))
    assert abs(np.trace(p_plus) - 1.0) < 1e-14
    assert abs(np.trace(p_minus) - 8.0) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_projector_set_invariants(n, kind):
    spec = ChannelSpec(kind, n)
    p, q = build_projectors(spec)
    assert not p.flags.writeable and not q.flags.writeable
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
    p_plus, p_minus = build_projectors(spec)
    g_plus, g_minus = generator_form_projectors(spec, gens)
    assert np.abs(p_plus - g_plus).max() <= 1e-12
    assert np.abs(p_minus - g_minus).max() <= 1e-12


def test_swap_gate_is_the_permutation_matrix():
    spec = ChannelSpec(Channel.S, 2)
    np.testing.assert_array_equal(spec.z_gate, SWAP_2)


@pytest.mark.parametrize("n", range(2, 7))
def test_swap_gate_acts_entrywise(n):
    spec = ChannelSpec(Channel.S, n)
    for i in range(n):
        for j in range(n):
            ket = np.zeros(n * n, dtype=complex)
            ket[i * n + j] = 1.0
            out = spec.z_gate @ ket
            expected = np.zeros(n * n, dtype=complex)
            expected[j * n + i] = 1.0
            assert np.abs(out - expected).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_gate_set_invariants(n, kind):
    spec = ChannelSpec(kind, n)
    z = spec.z_gate
    eye = np.eye(n * n)
    assert np.abs(spec.s_identity - eye).max() <= 1e-12
    assert np.abs(z.conj().T @ z - eye).max() <= 1e-12
    assert np.abs(z @ z - spec.s_identity).max() <= 1e-12
    assert np.abs(z - z.conj().T).max() <= 1e-12
    # two-element group closure
    assert np.abs(spec.s_identity @ z - z).max() <= 1e-12
    assert np.abs(z @ spec.s_identity - z).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_charge_parity_spectrum(n):
    spec = ChannelSpec(Channel.T, n)
    evals = np.sort(np.linalg.eigvalsh(spec.z_gate))
    assert np.abs(evals[:-1] + 1.0).max() <= 1e-10
    assert abs(evals[-1] - 1.0) <= 1e-10
    # multiplicities separated by a gap much wider than 1e-6
    assert int(np.sum(evals > 0)) == 1
    assert int(np.sum(evals < 0)) == n * n - 1


@pytest.mark.parametrize("n", range(2, 7))
def test_singlet_state_properties(n):
    # the singlet sum_i |ii> / sqrt(N)
    psi = np.eye(n, dtype=complex).reshape(n * n) / np.sqrt(n)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14
    spec = ChannelSpec(Channel.T, n)
    p_plus, _ = build_projectors(spec)
    assert np.abs(spec.z_gate @ psi - psi).max() <= 1e-12
    assert np.abs(p_plus @ psi - psi).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthogonal_complement_has_eigenvalue_minus_one(n):
    spec = ChannelSpec(Channel.T, n)
    _, p_minus = build_projectors(spec)
    rng = np.random.default_rng(42 + n)
    for _ in range(5):
        vec = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        vec = p_minus @ vec
        vec /= np.linalg.norm(vec)
        assert np.abs(spec.z_gate @ vec + vec).max() <= 1e-12


def test_charge_parity_bilinear_eigenvalues_n2():
    # two eigenvalues: 3/4 on the singlet, -1/4 on the adjoint complement
    gens = build_generators(2)
    x = charge_parity_bilinear(gens)
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert abs(np.vdot(psi, x @ psi) - 0.75) <= 1e-14
    evals = np.sort(np.linalg.eigvalsh(x))
    np.testing.assert_allclose(evals, [-0.25, -0.25, -0.25, 0.75], atol=1e-14)


@pytest.mark.parametrize("n", range(2, 7))
def test_bilinears_match_kronecker_sums(n):
    # both Fierz-tensor regroupings equal the sums of Kronecker products over the generators
    gens = build_generators(n)
    x_s = sum(np.kron(t, t) for t in gens)
    x_t = sum(np.kron(t, t.T) for t in gens)
    assert np.abs(charge_parity_bilinear(gens) - x_t).max() <= 1e-14
    eye = np.eye(n * n)
    g_plus, g_minus = generator_form_projectors(ChannelSpec(Channel.S, n), gens)
    assert np.abs(g_plus - ((n + 1) / (2.0 * n) * eye + x_s)).max() <= 1e-14
    assert np.abs(g_minus - ((n - 1) / (2.0 * n) * eye - x_s)).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_exponential_form_matches_gate_up_to_phase(n):
    gens = build_generators(n)
    spec = ChannelSpec(Channel.T, n)
    u_exp = u_exponential_form(gens)
    overlap = abs(np.einsum("ij,ij", spec.z_gate.conj(), u_exp)) / (n * n)
    assert overlap >= 1.0 - 1e-8


def test_exponential_form_squares_to_identity_up_to_phase():
    u_exp = u_exponential_form(build_generators(3))
    squared = u_exp @ u_exp
    phase = squared[0, 0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.abs(squared - phase * np.eye(9)).max() <= 1e-12


def test_exponential_form_measures_a_wrong_bilinear():
    # shrinking one generator splits the adjoint eigenvalue of X; the closed-form
    # eigenvalues then give a wrong gate, which the overlap measures instead of a raise
    mats = build_generators(2).generators.copy()
    mats[2] = mats[2] / 2.0
    u_exp = u_exponential_form(GeneratorSet(n=2, generators=mats))
    overlap = abs(np.einsum("ij,ij", ChannelSpec(Channel.T, 2).z_gate.conj(), u_exp)) / 4
    assert 1.0 - overlap >= 0.1


@pytest.mark.parametrize("n", range(2, 7))
def test_crossing_rows(n):
    s_spec = ChannelSpec(Channel.S, n)
    t_spec = ChannelSpec(Channel.T, n)
    p_plus, _ = build_projectors(t_spec)
    eye = np.eye(n * n)
    crossed_identity = crossing_map(s_spec.s_identity)
    crossed_swap = crossing_map(s_spec.z_gate)
    assert np.abs(crossed_identity - (n / 2.0) * (eye + t_spec.z_gate)).max() <= 1e-12
    assert np.abs(crossed_identity - n * p_plus).max() <= 1e-12
    assert np.abs(crossed_swap - eye).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossing_selection_oracle_is_unique(monkeypatch, n):
    # the oracle behind CROSSING_AXES judges each candidate densely, apart from the fast check that reads it
    def fast_check(*args):
        raise AssertionError("select_crossing_axes read crossing_operator_deviation")

    monkeypatch.setattr(channels, "crossing_operator_deviation", fast_check)
    assert select_crossing_axes(n) == [CROSSING_AXES]


@pytest.mark.parametrize("shape, message", [
    ((3, 4), "expected a square operator, got shape (3, 4)"),
    # 4 is a perfect square, so only the square guard stops this one before the reshape
    ((4, 9), "expected a square operator, got shape (4, 9)"),
    ((5, 5), "operator size 5 is not a perfect square"),
], ids=["3x4", "4x9", "5x5"])
def test_crossing_map_rejects_bad_shapes(shape, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        crossing_map(np.zeros(shape))


@pytest.mark.parametrize("kind, a, b, named", [
    (Channel.S, np.nan, 0.0, "a"),
    (Channel.S, complex(1.0, np.inf), 0.0, "a"),
    (Channel.T, 0.0, -np.inf, "b"),
    (Channel.T, complex(np.nan, 1.0), 0.0, "a"),
], ids=["s-nan", "s-inf", "t-inf", "t-nan"])
def test_crossing_operator_deviation_rejects_a_non_finite_pair(kind, a, b, named):
    # no amplitude holds a nan or inf: its constructor names the coefficient, so no crossing can read one
    with pytest.raises(ValueError, match=f"coefficient {named} must be finite"):
        AmplitudeCoefficients(ChannelSpec(kind, 2), a, b)


@pytest.mark.parametrize("s, t", [
    (ChannelSpec(Channel.T, 3), ChannelSpec(Channel.S, 3)),
    (ChannelSpec(Channel.S, 3), ChannelSpec(Channel.T, 4)),
    (ChannelSpec(Channel.S, 3), ChannelSpec(Channel.S, 3)),
], ids=["swapped", "mismatched-n", "two-s"])
def test_crossing_rejects_a_swapped_or_mismatched_pair(s, t):
    # the s-channel amplitude comes first and both share one N; anything else is named, not measured
    message = re.escape(f"got {s} and {t}")
    with pytest.raises(ValueError, match=message):
        crossing_row_deviations(s, t)
    with pytest.raises(ValueError, match=message):
        crossing_operator_deviation(AmplitudeCoefficients(s, 1.0, 0.0), AmplitudeCoefficients(t, 1.0, 0.0))


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
    assert np.array_equal(build_projectors(ChannelSpec(Channel.S, n)), (s_plus, s_minus))
    assert np.array_equal(build_projectors(ChannelSpec(Channel.T, n)), (t_plus, t_minus))

    rng = np.random.default_rng(n)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    crossed = np.zeros((d, d), dtype=complex)
    for a, b, c, e in product(range(n), repeat=4):
        crossed[a * n + b, c * n + e] = op[a * n + e, b * n + c]
    assert np.array_equal(crossing_map(op), crossed)

    s_spec, t_spec = ChannelSpec(Channel.S, n), ChannelSpec(Channel.T, n)
    eye = np.eye(d, dtype=complex)
    # Z is the projector difference; apply_z's t-channel diagonal may round in another order
    assert not s_spec.z_gate.flags.writeable and not t_spec.z_gate.flags.writeable
    assert np.array_equal(s_spec.z_gate, s_plus - s_minus)
    assert np.abs(t_spec.z_gate - (t_plus - t_minus)).max() <= 1e-15
    assert np.array_equal(s_spec.s_identity, eye) and np.array_equal(t_spec.s_identity, eye)
    inline = (np.abs(crossing_map(s_spec.s_identity) - (n / 2.0) * (eye + t_spec.z_gate)).max(),
              np.abs(crossing_map(s_spec.z_gate) - eye).max())
    assert np.array_equal(crossing_row_deviations(s_spec, t_spec), inline)


complex_entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), kind=st.sampled_from([Channel.S, Channel.T]))
def test_apply_z_matches_dense_z(data, n, kind):
    # the O(N^2) action is pinned to P_plus - P_minus of the delta-index projectors, not to z_gate,
    # which is built from apply_z itself: Z psi and the involution Z Z psi = psi
    spec = ChannelSpec(kind, n)
    p_plus, p_minus = build_projectors(spec)
    psi = np.array(data.draw(st.lists(complex_entries, min_size=n * n, max_size=n * n)), dtype=complex)
    z_psi = spec.apply_z(psi)
    assert np.abs(z_psi - (p_plus - p_minus) @ psi).max() <= 1e-12
    assert np.abs(spec.apply_z(z_psi) - psi).max() <= 1e-12


@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
@pytest.mark.parametrize("shape", [(8,), (10,), (3, 3), ()])
def test_apply_z_rejects_wrong_shape(kind, shape):
    # the t-channel strided index would otherwise accept any length
    with pytest.raises(ValueError, match="shape"):
        ChannelSpec(kind, 3).apply_z(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_channel_spec_allocates_no_dense_array_until_z_gate_is_read(kind):
    n = 32
    dense_bytes = (n * n) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        spec = ChannelSpec(kind, n)
        spec.apply_z(np.ones(n * n, dtype=complex))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        z = spec.z_gate
        _, dense_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 100, peak / dense_bytes
    # read once, built once
    assert dense_peak >= dense_bytes and spec.z_gate is z


def test_generator_form_projectors_dimension_mismatch():
    with pytest.raises(ValueError):
        generator_form_projectors(ChannelSpec(Channel.S, 3), build_generators(2))


def branch_generator_form(channel, gens):
    """Each channel's generator-form projector pair written out in its own branch."""
    n = channel.n
    eye = np.eye(n * n, dtype=complex)
    if channel.kind is Channel.S:
        x = gens.fierz.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        return (n + 1) / (2.0 * n) * eye + x, (n - 1) / (2.0 * n) * eye - x
    x = charge_parity_bilinear(gens)
    return eye / (n * n) + (2.0 / n) * x, (1.0 - 1.0 / (n * n)) * eye - (2.0 / n) * x


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("kind", [Channel.S, Channel.T])
def test_generator_form_matches_the_per_channel_branches_bit_for_bit(n, kind):
    spec, gens = ChannelSpec(kind, n), build_generators(n)
    assert [p.tobytes() for p in generator_form_projectors(spec, gens)] == \
        [p.tobytes() for p in branch_generator_form(spec, gens)]
