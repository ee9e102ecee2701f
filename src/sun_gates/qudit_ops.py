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


def decompose(op: np.ndarray, gens: GeneratorSet) -> OperatorBasisDecomposition:
    """Project a two-qudit operator onto the generator operator basis.

    Coefficients are the trace projections
    scalar = Tr(M) / N^2,
    left_a = (2/N) Tr(M (T^a (x) I)),
    right_a = (2/N) Tr(M (I (x) T^a)),
    corr_ab = 4 Tr(M (T^a (x) T^b)).
    Raises ``ValueError`` unless ``op`` is an N^2 x N^2 array of finite entries.
    """
    n = gens.n
    op = np.asarray(op, dtype=complex)
    if op.shape != (n * n, n * n):
        raise ValueError(f"expected operator of shape ({n*n}, {n*n}), got {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError("operator must be finite, got a nan or infinite entry")
    t4 = op.reshape(n, n, n, n)  # [k, l, i, j]
    g = gens.generators
    scalar = complex(np.einsum("klkl", t4)) / (n * n)
    left = (2.0 / n) * np.einsum("klil,aik->a", t4, g)
    right = (2.0 / n) * np.einsum("klkj,ajl->a", t4, g)
    corr = 4.0 * np.einsum("klij,aik,bjl->ab", t4, g, g)
    return OperatorBasisDecomposition(n=n, scalar=scalar, left=left, right=right, corr=corr)


def _hilbert_schmidt_basis(gens: GeneratorSet) -> np.ndarray:
    """The N^2 x N^2 stack B whose rows are vec(I)/sqrt(N) and sqrt(2) vec(T^a), orthonormal under Tr(A^dag B)."""
    n = gens.n
    return np.concatenate([
        np.eye(n, dtype=complex).reshape(1, n * n) / np.sqrt(n),
        np.sqrt(2.0) * gens.generators.reshape(len(gens), n * n),
    ])


def reconstruct(dec: OperatorBasisDecomposition, gens: GeneratorSet) -> np.ndarray:
    """Rebuild the operator from its basis coefficients as one change of basis, R = B^T C B.

    B is the Hilbert-Schmidt basis {I/sqrt(N), sqrt(2) T^a} stacked as an
    N^2 x N^2 matrix, and C holds the coefficients in that basis:
    C_00 = N scalar, C_a0 = left_a / sqrt(2/N), C_0b = right_b / sqrt(2/N),
    C_ab = corr_ab / 2.  B^T C B is indexed [(k,i),(l,j)]; R is that matrix
    with its (k, i, l, j) indices regrouped by (0, 2, 1, 3).  The cost is two
    N^2 x N^2 matrix products, O(N^6).

    Raises ``ValueError`` if ``dec`` is for another N, or naming the field if
    ``scalar`` is not a scalar or ``left``, ``right`` or ``corr`` is not of
    shape (N^2-1,), (N^2-1,) or (N^2-1, N^2-1), or holds a nan or infinite entry.
    """
    if dec.n != gens.n:
        raise ValueError(f"decomposition is for N={dec.n}, generators for N={gens.n}")
    n = gens.n
    d = len(gens)
    for name, shape in (("scalar", ()), ("left", (d,)), ("right", (d,)), ("corr", (d, d))):
        got = np.shape(value := getattr(dec, name))
        if got != shape:
            raise ValueError(f"{name} must have shape {shape} for N={n}, got {got}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got a nan or infinite entry")
    c = np.empty((d + 1, d + 1), dtype=complex)
    c[0, 0] = n * dec.scalar
    c[1:, 0] = dec.left / np.sqrt(2.0 / n)
    c[0, 1:] = dec.right / np.sqrt(2.0 / n)
    c[1:, 1:] = dec.corr / 2.0
    b = _hilbert_schmidt_basis(gens)
    r = (b.T @ c @ b).reshape(n, n, n, n)  # [k, i, l, j]
    return r.transpose(0, 2, 1, 3).reshape(n * n, n * n)
