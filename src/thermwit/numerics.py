"""Dense linear-algebra and scalar primitives used by the rest of the package.

All matrices are plain complex numpy arrays. Dimensions are capped at
``DIM_CAP`` (12 qubit sites) because everything here is meant for small
exact diagonalisation, not for large-scale simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadDimensionFactorization,
    DimensionTooLarge,
    DomainError,
    NoSignChange,
    NotHermitian,
)

DIM_CAP = 4096
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadDimensionFactorization(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_eigendecompose(m: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Full eigensystem of a Hermitian matrix.

    Raises NotHermitian if ``max|m - m^dagger|`` exceeds ``tol * max(1, max|m|)``
    and DimensionTooLarge above DIM_CAP. Eigenvalues come back ascending with
    orthonormal columns of eigenvectors.
    """
    a = _as_square_matrix(m)
    if a.shape[0] > DIM_CAP:
        raise DimensionTooLarge(f"dimension {a.shape[0]} exceeds cap {DIM_CAP}")
    a = a.astype(complex)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol * scale:
        raise NotHermitian(f"max |m - m^dagger| = {dev:.3e} above {tol * scale:.3e}")
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the package dimension cap."""
    am = np.asarray(a)
    bm = np.asarray(b)
    if am.ndim != 2 or bm.ndim != 2:
        raise BadDimensionFactorization("kron expects two 2-D arrays")
    if am.shape[0] * bm.shape[0] > DIM_CAP or am.shape[1] * bm.shape[1] > DIM_CAP:
        raise DimensionTooLarge(
            f"kron result {am.shape[0] * bm.shape[0]} x {am.shape[1] * bm.shape[1]} "
            f"exceeds cap {DIM_CAP}"
        )
    return np.kron(am, bm)


def partial_transpose(
    rho: np.ndarray, local_dims: Sequence[int], subset: Sequence[int]
) -> np.ndarray:
    """Transpose the tensor factors named in ``subset``.

    ``local_dims`` lists the per-site dimensions in row-major (site 0 most
    significant) order; their product must equal the matrix dimension.
    The subset must be a nonempty proper subset of sites. The result of
    applying the same partial transpose twice is the original matrix.
    """
    a = _as_square_matrix(rho)
    dims = tuple(int(d) for d in local_dims)
    if any(d < 1 for d in dims) or not dims:
        raise BadDimensionFactorization("local dimensions must be positive")
    d = math.prod(dims)
    if d != a.shape[0]:
        raise BadDimensionFactorization(
            f"matrix dimension {a.shape[0]} != product of local dims {d}"
        )
    n = len(dims)
    sites = sorted(set(int(s) for s in subset))
    if len(sites) != len(list(subset)):
        raise BadDimensionFactorization("subset contains repeats")
    if not sites or len(sites) >= n:
        raise BadDimensionFactorization("subset must be a nonempty proper subset of sites")
    if sites[0] < 0 or sites[-1] >= n:
        raise BadDimensionFactorization(f"subset {sites} out of range for {n} sites")
    t = a.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in sites:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def log_gamma(x: float) -> float:
    """log Gamma(x) for real x > 0; DomainError outside that range."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by bisection.

    Requires a sign change across the bracket (NoSignChange otherwise); an
    exact zero at an endpoint returns that endpoint. Terminates once the
    bracket width drops below ``tol * max(1, |mid|)``. The function is
    evaluated as given; monotonicity is the caller's contract.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise NoSignChange(f"empty bracket [{lo}, {hi}]")
    fa = f(lo)
    if fa == 0.0:
        return lo
    fb = f(hi)
    if fb == 0.0:
        return hi
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoSignChange(f"f({lo}) = {fa:.6g} and f({hi}) = {fb:.6g} have the same sign")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            lo, fa = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
