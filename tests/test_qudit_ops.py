import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sun_gates.qudit_ops import OperatorBasisDecomposition, decompose, reconstruct
from sun_gates.sun_algebra import build_generators

complex_scalars = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def einsum_reconstruct(dec):
    # the dense sum scalar I(x)I + left_a T^a(x)I + right_b I(x)T^b + corr_ab T^a(x)T^b, as an oracle
    n = dec.gens.n
    g = dec.gens.generators
    eye = np.eye(n, dtype=complex)
    out = dec.scalar * np.eye(n * n, dtype=complex)
    out += np.kron(np.einsum("a,aki->ki", dec.left, g), eye)
    out += np.kron(eye, np.einsum("a,alj->lj", dec.right, g))
    out += np.einsum("ab,aki,blj->klij", dec.corr, g, g).reshape(n * n, n * n)
    return out


def random_operator(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))


def test_decompose_identity():
    gens = build_generators(3)
    dec = decompose(np.eye(9, dtype=complex), gens)
    assert abs(dec.scalar - 1.0) < 1e-14
    assert np.abs(dec.left).max() < 1e-14
    assert np.abs(dec.right).max() < 1e-14
    assert np.abs(dec.corr).max() < 1e-14


def test_decompose_picks_out_single_correlation():
    gens = build_generators(2)
    op = np.kron(gens[0], gens[1])
    dec = decompose(op, gens)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    assert abs(dec.scalar) < 1e-14
    assert np.abs(dec.left).max() < 1e-14
    assert np.abs(dec.right).max() < 1e-14
    np.testing.assert_allclose(dec.corr, expected, atol=1e-14)


def test_reconstruct_trivial_coefficients():
    gens = build_generators(2)
    zero = decompose(np.zeros((4, 4), dtype=complex), gens)
    np.testing.assert_allclose(reconstruct(zero), np.zeros((4, 4)), atol=1e-15)
    unit = decompose(np.eye(4, dtype=complex), gens)
    np.testing.assert_allclose(reconstruct(unit), np.eye(4), atol=1e-14)


def test_round_trip_through_swap():
    gens = build_generators(2)
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    np.testing.assert_allclose(reconstruct(decompose(swap, gens)), swap, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_random_operators(n):
    gens = build_generators(n)
    for sample in range(100):
        op = random_operator(n, seed=1000 * n + sample)
        rebuilt = reconstruct(decompose(op, gens))
        assert np.abs(rebuilt - op).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_on_coefficient_space(n):
    # decompose(reconstruct(.)) is the identity on coefficients
    gens = build_generators(n)
    for sample in range(100):
        dec = decompose(random_operator(n, seed=500 * n + sample), gens)
        rebuilt = decompose(reconstruct(dec), gens)
        assert abs(rebuilt.scalar - dec.scalar) <= 1e-10
        assert np.abs(rebuilt.left - dec.left).max() <= 1e-10
        assert np.abs(rebuilt.right - dec.right).max() <= 1e-10
        assert np.abs(rebuilt.corr - dec.corr).max() <= 1e-10


@given(u=complex_scalars, v=complex_scalars)
def test_decompose_is_linear(u, v):
    gens = build_generators(2)
    op1 = random_operator(2, seed=11)
    op2 = random_operator(2, seed=13)
    combo = decompose(u * op1 + v * op2, gens)
    d1 = decompose(op1, gens)
    d2 = decompose(op2, gens)
    tol = 1e-8 * (1 + abs(u) + abs(v))
    assert abs(combo.scalar - (u * d1.scalar + v * d2.scalar)) <= tol
    assert np.abs(combo.left - (u * d1.left + v * d2.left)).max() <= tol
    assert np.abs(combo.right - (u * d1.right + v * d2.right)).max() <= tol
    assert np.abs(combo.corr - (u * d1.corr + v * d2.corr)).max() <= tol


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hermitian_operators_give_real_coefficients(n):
    # every basis element is Hermitian, so a Hermitian operator has real
    # coefficients throughout (corr included; it need not be symmetric)
    gens = build_generators(n)
    op = random_operator(n, seed=3 * n)
    op = op + op.conj().T
    dec = decompose(op, gens)
    assert abs(dec.scalar.imag) <= 1e-12
    assert np.abs(dec.left.imag).max() <= 1e-12
    assert np.abs(dec.right.imag).max() <= 1e-12
    assert np.abs(dec.corr.imag).max() <= 1e-12


def test_dimension_mismatch_raises():
    gens = build_generators(3)
    with pytest.raises(ValueError):
        decompose(np.eye(4, dtype=complex), gens)


@pytest.mark.parametrize("gens", [2, "2", None], ids=["int", "str", "none"])
def test_decomposition_rejects_a_basis_that_is_no_generator_set(gens):
    # a decomposition is taken in one basis, which reconstruct reads from it
    basis = build_generators(2)
    coefficients = decompose(np.eye(4, dtype=complex), basis)
    assert coefficients.gens is basis
    with pytest.raises(TypeError, match=f"gens must be a GeneratorSet, got {re.escape(repr(gens))}"):
        dataclasses.replace(coefficients, gens=gens)


@pytest.mark.parametrize("n", range(2, 9))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reconstruct_matches_einsum_oracle(n, data):
    # arbitrary coefficients, not only images of decompose
    gens = build_generators(n)
    d = n * n - 1
    dec = OperatorBasisDecomposition(
        gens=gens,
        scalar=data.draw(complex_scalars),
        left=data.draw(arrays(complex, d, elements=complex_scalars)),
        right=data.draw(arrays(complex, d, elements=complex_scalars)),
        corr=data.draw(arrays(complex, (d, d), elements=complex_scalars)),
    )
    assert np.abs(reconstruct(dec) - einsum_reconstruct(dec)).max() <= 1e-12


@pytest.mark.parametrize("field, shape", [
    ("scalar", (1,)),
    ("scalar", (9,)),
    ("left", (1,)),
    ("left", (8, 8)),
    ("right", (1,)),
    ("corr", ()),
    ("corr", (8,)),
    ("corr", (1, 8)),
], ids=str)
def test_reconstruct_rejects_misshaped_fields(field, shape):
    gens = build_generators(3)
    dec = dataclasses.replace(decompose(np.eye(9, dtype=complex), gens), **{field: np.ones(shape)})
    with pytest.raises(ValueError, match=field):
        reconstruct(dec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)], ids=str)
def test_decompose_rejects_a_non_finite_operator(bad):
    gens = build_generators(3)
    op = np.eye(9, dtype=complex)
    op[4, 2] = bad
    with pytest.raises(ValueError, match="operator must be finite"):
        decompose(op, gens)


@pytest.mark.parametrize("field", ["scalar", "left", "right", "corr"])
def test_reconstruct_rejects_a_non_finite_field(field):
    gens = build_generators(3)
    dec = decompose(np.eye(9, dtype=complex), gens)
    value = np.array(getattr(dec, field), dtype=complex)
    value.flat[-1] = np.nan
    dec = dataclasses.replace(dec, **{field: value if value.ndim else complex(value)})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        reconstruct(dec)
