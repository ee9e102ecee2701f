import numpy as np
import pytest

from sun_gates.sun_algebra import (
    GeneratorSet,
    build_generators,
    hermiticity_deviation,
    orthonormality_deviation,
    tracelessness_deviation,
    verify_completeness,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_su2_generators_are_half_paulis():
    gens = build_generators(2)
    assert len(gens) == 3
    np.testing.assert_allclose(gens[0], SIGMA_X / 2, atol=1e-15)
    np.testing.assert_allclose(gens[1], SIGMA_Y / 2, atol=1e-15)
    np.testing.assert_allclose(gens[2], SIGMA_Z / 2, atol=1e-15)


def test_su3_count_and_normalization():
    gens = build_generators(3)
    assert len(gens) == 8
    for t in gens:
        assert abs(np.trace(t @ t) - 0.5) < 1e-12


def test_su4_pairwise_trace_orthogonality():
    # loop over all 15^2 pairs with a freshly computed trace
    gens = build_generators(4)
    assert len(gens) == 15
    for a, ta in enumerate(gens):
        for b, tb in enumerate(gens):
            expected = 0.5 if a == b else 0.0
            assert abs(np.trace(ta @ tb) - expected) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_invariants(n):
    gens = build_generators(n)
    assert len(gens) == n * n - 1
    assert hermiticity_deviation(gens) <= 1e-12
    assert tracelessness_deviation(gens) <= 1e-12
    assert orthonormality_deviation(gens) <= 1e-12


def _non_hermitian_sets():
    rng = np.random.default_rng(7)
    shape = (15, 4, 4)
    # i T^a is anti-Hermitian: Tr(iT^a iT^b) = -delta_ab / 2, where a conjugated stack would read +1/2
    yield GeneratorSet(3, 1j * build_generators(3).generators)
    yield GeneratorSet(4, (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / 4)


@pytest.mark.parametrize("gens", [*map(build_generators, range(2, 9)), *_non_hermitian_sets()],
                         ids=[*(f"n{n}" for n in range(2, 9)), "anti-hermitian", "random"])
def test_orthonormality_matches_the_einsum_trace(gens):
    gram = np.einsum("aij,bji->ab", gens.generators, gens.generators)
    oracle = float(np.abs(gram - 0.5 * np.eye(len(gens))).max())
    assert abs(orthonormality_deviation(gens) - oracle) <= 1e-15


@pytest.mark.parametrize("n", [1, 0, -3])
def test_rejects_dimension_below_two(n):
    with pytest.raises(ValueError):
        build_generators(n)


@pytest.mark.parametrize("n", [2, 3])
def test_completeness_explicit_index_loop(n):
    # exhaustive loop over all (i, j, k, l) tuples, independent of the
    # vectorized check
    gens = build_generators(n)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum(t[i, j] * t[k, l] for t in gens)
                    rhs = 0.5 * ((i == l) * (j == k) - (i == j) * (k == l) / n)
                    worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    report = verify_completeness(gens, tolerance=1e-12)
    assert report.passed
    assert abs(report.max_deviation - worst) <= 1e-15


@pytest.mark.parametrize("n", range(2, 7))
def test_fierz_tensor_matches_einsum(n):
    # G^T G equals the generator einsum it replaces in the completeness check; built once, read-only
    gens = build_generators(n)
    lhs = np.einsum("aij,akl->ijkl", gens.generators, gens.generators)
    assert np.abs(gens.fierz.reshape(n, n, n, n) - lhs).max() <= 1e-14
    assert gens.fierz is gens.fierz and not gens.fierz.flags.writeable


@pytest.mark.parametrize("n", range(2, 9))
def test_completeness_passes_at_tight_tolerance(n):
    report = verify_completeness(build_generators(n), tolerance=1e-12)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_generator_set_rejects_wrong_shape():
    with pytest.raises(ValueError):
        GeneratorSet(n=2, generators=np.zeros((4, 2, 2), dtype=complex))


def test_generator_matrices_are_read_only():
    gens = build_generators(3)
    with pytest.raises(ValueError):
        gens.generators[0, 0, 0] = 1.0
