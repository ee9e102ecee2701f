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
        Finite (see ``finite_array``) and read-only: a writable array or a view is copied, so its caller keeps it.
    """

    n: int
    generators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", qudit_dimension(self.n))
        generators = finite_array("generators", self.generators, (self.n * self.n - 1, self.n, self.n))
        owned = generators.flags.owndata and not generators.flags.writeable  # so no caller can write to it
        object.__setattr__(self, "generators", generators if owned else generators.copy())
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
    """N as a Python ``int`` (so JSON-ready), the rule of every constructor that takes N: ``bounded_integer`` from 2."""
    return bounded_integer("qudit dimension", n, 2)


def bounded_integer(name: str, value, low: int, high: int | None = None) -> int:
    """``int(value)``, the rule of every entry point that takes an integer: N, a sector label, a sample count.

    Raises ``TypeError`` naming ``name`` unless ``value`` is an integer (numpy's included, ``bool`` refused), and
    ``ValueError`` naming it below ``low`` or, when ``high`` is given, above ``high``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")
    return int(value)


def finite_array(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``np.asarray(value)``, the rule of every entry point that takes numbers: an operator, a state, a coefficient.

    Raises ``ValueError`` naming ``name`` for a ragged nested sequence, or unless the array has ``shape`` (when given),
    an integer, float or complex dtype, and no nan or infinite entry; a 0-d value prints itself in that message.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers, got a ragged sequence") from exc
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if array.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers, got dtype {array.dtype}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array if array.ndim == 0 else 'a nan or infinite entry'}")
    return array


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
    pairs = n * (n - 1) // 2
    t = np.zeros((n * n - 1, n, n), dtype=complex)
    i, j = np.triu_indices(n, 1)
    a = np.arange(pairs)
    t[a, i, j], t[a, j, i] = 0.5, 0.5
    t[pairs + a, i, j], t[pairs + a, j, i] = -0.5j, 0.5j
    for l in range(1, n):
        # diag(1, ..., 1, -l) on the first l + 1 entries, times sqrt(2 / (l (l+1))) / 2 so that Tr(T^2) = 1/2
        np.fill_diagonal(t[2 * pairs + l - 1, :l + 1, :l + 1],
                         np.append(np.ones(l), -float(l)) * (np.sqrt(2.0 / (l * (l + 1))) / 2.0))
    t.setflags(write=False)  # so GeneratorSet keeps this array, not a copy of it
    return GeneratorSet(n=n, generators=t)


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
