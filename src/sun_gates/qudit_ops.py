"""Two-qudit operator plumbing: operator-basis projections.

Index convention, used everywhere in this package: a two-qudit operator is an
N^2 x N^2 complex matrix whose row index encodes the outgoing pair (k, l)
flattened as k*N + l and whose column index encodes the incoming pair (i, j)
flattened as i*N + j (zero-based, first factor most significant).  With this
flattening ``numpy.kron`` realizes the tensor product:
(A (x) B)[(k*N+l), (i*N+j)] = A[k, i] * B[l, j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sun_algebra import GeneratorSet


@dataclass(frozen=True, eq=False)
class OperatorBasisDecomposition:
    """Coefficients of an operator on the basis {I(x)I, T^a(x)I, I(x)T^a, T^a(x)T^b}.

    ``corr`` stores the full correlation coefficient matrix c_ab (the trace
    projection times four), not c_ab / 4.
    """

    n: int
    scalar: complex
    left: np.ndarray   # shape (N^2-1,)
    right: np.ndarray  # shape (N^2-1,)
    corr: np.ndarray   # shape (N^2-1, N^2-1)


def _as_four_tensor(op: np.ndarray, n: int) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.shape != (n * n, n * n):
        raise ValueError(f"expected operator of shape ({n*n}, {n*n}), got {op.shape}")
    return op.reshape(n, n, n, n)  # [k, l, i, j]


def decompose(op: np.ndarray, gens: GeneratorSet) -> OperatorBasisDecomposition:
    """Project a two-qudit operator onto the generator operator basis.

    Coefficients are the trace projections
    scalar = Tr(M) / N^2,
    left_a = (2/N) Tr(M (T^a (x) I)),
    right_a = (2/N) Tr(M (I (x) T^a)),
    corr_ab = 4 Tr(M (T^a (x) T^b)).
    """
    n = gens.n
    t4 = _as_four_tensor(op, n)
    g = gens.generators
    scalar = complex(np.einsum("klkl", t4)) / (n * n)
    left = (2.0 / n) * np.einsum("klil,aik->a", t4, g)
    right = (2.0 / n) * np.einsum("klkj,ajl->a", t4, g)
    corr = 4.0 * np.einsum("klij,aik,bjl->ab", t4, g, g)
    return OperatorBasisDecomposition(n=n, scalar=scalar, left=left, right=right, corr=corr)


def reconstruct(dec: OperatorBasisDecomposition, gens: GeneratorSet) -> np.ndarray:
    """Rebuild the operator from its basis coefficients."""
    if dec.n != gens.n:
        raise ValueError(f"decomposition is for N={dec.n}, generators for N={gens.n}")
    n = gens.n
    g = gens.generators
    eye = np.eye(n, dtype=complex)
    out = dec.scalar * np.eye(n * n, dtype=complex)
    out += np.kron(np.einsum("a,aki->ki", dec.left, g), eye)
    out += np.kron(eye, np.einsum("a,alj->lj", dec.right, g))
    out += np.einsum("ab,aki,blj->klij", dec.corr, g, g).reshape(n * n, n * n)
    return out
