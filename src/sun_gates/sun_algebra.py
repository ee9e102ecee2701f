"""SU(N) generator algebra: generalized Gell-Mann matrices and their identities.

Generators are normalized so that Tr(T^a T^b) = delta_ab / 2 and ordered as:
all symmetric off-diagonal pairs first (lexicographic in (i, j) with i < j),
then the antisymmetric pairs in the same order, then the N - 1 diagonal
matrices.  For N = 2 this reproduces (sigma_x, sigma_y, sigma_z) / 2.

Entries are assembled from exact rational / square-root expressions and stored
as complex floats, so the defining identities hold at machine precision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The N^2 - 1 generators of su(N) in the fundamental representation.

    Attributes
    ----------
    n : int
        Qudit dimension N >= 2 (see ``qudit_dimension``).
    generators : np.ndarray
        Complex array of shape (N^2 - 1, N, N); ``generators[a]`` is T^a.
        Read-only after construction.
    """

    n: int
    generators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", qudit_dimension(self.n))
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

    @cached_property
    def fierz(self) -> np.ndarray:
        """The Fierz tensor sum_a vec(T^a) vec(T^a)^T as G^T G, G the (N^2 - 1) x N^2 generator stack.

        Entry [(i,j),(k,l)] is sum_a (T^a)_ij (T^a)_kl.  Both channels' generator
        bilinears and the completeness check read this one matrix, built on its
        first read and kept read-only.
        """
        g = self.generators.reshape(len(self), self.n ** 2)
        f = g.T @ g
        f.setflags(write=False)
        return f


def qudit_dimension(n) -> int:
    """N as a Python ``int`` (so JSON-ready), the rule of every constructor that takes N.

    Raises ``TypeError`` naming ``n`` unless it is an integer (numpy integers
    included), and ``ValueError`` if it is below 2.
    """
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"qudit dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"qudit dimension must be at least 2, got {n}")
    return int(n)


def build_generators(n: int) -> GeneratorSet:
    """Construct the generalized Gell-Mann generators of su(N).

    Parameters
    ----------
    n : int
        Qudit dimension, an integer >= 2 (see ``qudit_dimension``).

    Returns
    -------
    GeneratorSet
        N^2 - 1 traceless Hermitian matrices with Tr(T^a T^b) = delta_ab / 2,
        ordered symmetric pairs, antisymmetric pairs, diagonal.

    Raises
    ------
    TypeError
        If n is not an integer.
    ValueError
        If n < 2.
    """
    n = qudit_dimension(n)
    mats = []
    for upper, lower in ((0.5, 0.5), (-0.5j, 0.5j)):
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[i, j], m[j, i] = upper, lower
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
    """Max entrywise deviation of Tr(T^a T^b) from delta_ab / 2.

    Tr(T^a T^b) = vec(T^a) . vec((T^b)^T), so the Gram matrix is one product of
    the (N^2 - 1) x N^2 generator stack with its transposed-generator stack; it
    assumes no Hermiticity.
    """
    d, t = len(gens), gens.generators
    gram = t.reshape(d, -1) @ t.transpose(0, 2, 1).reshape(d, -1).T
    return float(np.abs(gram - 0.5 * np.eye(d)).max())


def verify_completeness(gens: GeneratorSet) -> float:
    """Max deviation of the completeness (Fierz) identity of the generator basis.

    Evaluates sum_a (T^a)_ij (T^a)_kl - (delta_il delta_jk - delta_ij delta_kl / N) / 2
    over all index tuples (i, j, k, l) and returns the max absolute value.
    """
    n = gens.n
    lhs = gens.fierz.reshape(n, n, n, n)
    eye = np.eye(n)
    rhs = 0.5 * (
        np.einsum("il,jk->ijkl", eye, eye)
        - np.einsum("ij,kl->ijkl", eye, eye) / n
    )
    return float(np.abs(lhs - rhs).max())
