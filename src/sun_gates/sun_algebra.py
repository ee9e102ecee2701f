"""SU(N) generator algebra: generalized Gell-Mann matrices and their identities.

Generators are normalized so that Tr(T^a T^b) = delta_ab / 2 and ordered as:
all symmetric off-diagonal pairs first (lexicographic in (i, j) with i < j),
then the antisymmetric pairs in the same order, then the N - 1 diagonal
matrices.  For N = 2 this reproduces (sigma_x, sigma_y, sigma_z) / 2.

Entries are assembled from exact rational / square-root expressions and stored
as complex floats, so the defining identities hold at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The N^2 - 1 generators of su(N) in the fundamental representation.

    Attributes
    ----------
    n : int
        Qudit dimension N >= 2.
    generators : np.ndarray
        Complex array of shape (N^2 - 1, N, N); ``generators[a]`` is T^a.
        Read-only after construction.
    """

    n: int
    generators: np.ndarray

    def __post_init__(self):
        d = self.n * self.n - 1
        if self.generators.shape != (d, self.n, self.n):
            raise ValueError(
                f"expected {d} generators of shape ({self.n}, {self.n}), "
                f"got array of shape {self.generators.shape}"
            )
        self.generators.setflags(write=False)

    def __len__(self) -> int:
        return self.generators.shape[0]

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, a: int) -> np.ndarray:
        return self.generators[a]


@dataclass(frozen=True)
class CompletenessReport:
    """Result of checking the completeness (Fierz) identity."""

    n: int
    max_deviation: float
    tolerance: float
    passed: bool


def build_generators(n: int) -> GeneratorSet:
    """Construct the generalized Gell-Mann generators of su(N).

    Parameters
    ----------
    n : int
        Qudit dimension, must be >= 2.

    Returns
    -------
    GeneratorSet
        N^2 - 1 traceless Hermitian matrices with Tr(T^a T^b) = delta_ab / 2,
        ordered symmetric pairs, antisymmetric pairs, diagonal.

    Raises
    ------
    ValueError
        If n < 2.
    """
    if n < 2:
        raise ValueError(f"qudit dimension must be at least 2, got {n}")

    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 0.5
            m[j, i] = 0.5
            mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -0.5j
            m[j, i] = 0.5j
            mats.append(m)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        # normalization sqrt(2 / (l (l+1))) / 2 gives Tr(T^2) = 1/2
        mats.append(np.diag(diag).astype(complex) * (np.sqrt(2.0 / (l * (l + 1))) / 2.0))

    return GeneratorSet(n=n, generators=np.array(mats))


def hermiticity_deviation(gens: GeneratorSet) -> float:
    """Max entrywise deviation of T^a from its conjugate transpose."""
    t = gens.generators
    return float(np.abs(t - t.conj().transpose(0, 2, 1)).max())


def tracelessness_deviation(gens: GeneratorSet) -> float:
    """Max |Tr(T^a)| over all generators."""
    return float(np.abs(np.trace(gens.generators, axis1=1, axis2=2)).max())


def orthonormality_deviation(gens: GeneratorSet) -> float:
    """Max entrywise deviation of Tr(T^a T^b) from delta_ab / 2."""
    gram = np.einsum("aij,bji->ab", gens.generators, gens.generators)
    d = len(gens)
    return float(np.abs(gram - 0.5 * np.eye(d)).max())


def verify_completeness(gens: GeneratorSet, tolerance: float = DEFAULT_TOLERANCE) -> CompletenessReport:
    """Check the completeness (Fierz) identity of the generator basis.

    Evaluates sum_a (T^a)_ij (T^a)_kl - (delta_il delta_jk - delta_ij delta_kl / N) / 2
    over all index tuples (i, j, k, l) and reports the max absolute deviation.
    """
    n = gens.n
    lhs = np.einsum("aij,akl->ijkl", gens.generators, gens.generators)
    eye = np.eye(n)
    rhs = 0.5 * (
        np.einsum("il,jk->ijkl", eye, eye)
        - np.einsum("ij,kl->ijkl", eye, eye) / n
    )
    dev = float(np.abs(lhs - rhs).max())
    return CompletenessReport(n=n, max_deviation=dev, tolerance=tolerance, passed=dev <= tolerance)
