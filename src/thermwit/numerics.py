"""Dense linear-algebra and scalar primitives used by the rest of the package.

Matrices are plain numpy arrays: real symmetric input stays real (the
Hamiltonians built in ``systems`` are real), complex input stays complex.
Dimensions are capped at ``DIM_CAP`` (12 qubit sites) because everything
here is meant for small exact diagonalisation, not for large-scale
simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadDimensionFactorization,
    DimensionTooLarge,
    NoSignChange,
    NotHermitian,
)

DIM_CAP = 4096
HERMITICITY_TOL = 1e-12
# A guard only: the steps meet within a few dozen evaluations on smooth
# functions, and even plain halving closes any finite bracket in under 2,100.
ROOT_BRACKET_MAX_STEPS = 2200


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_stack(m: np.ndarray) -> np.ndarray:
    """``m`` as one square matrix or a stack of them, shape (..., d, d)."""
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise BadDimensionFactorization(f"expected square matrices, got shape {a.shape}")
    return a


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    a = _as_square_stack(m)
    if a.ndim != 2:
        raise BadDimensionFactorization(f"expected a square matrix, got shape {a.shape}")
    return a


def first_failure(flags: np.ndarray) -> str:
    """Where a per-matrix test first failed: '' for one matrix, ' at index i' in a stack."""
    flags = np.asarray(flags)
    if flags.ndim == 0:
        return ""
    first = np.unravel_index(int(np.argmax(flags)), flags.shape)
    return f" at index {tuple(int(i) for i in first)}"


def _checked_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    """``a``, unconverted, once its size and the symmetry of each matrix pass."""
    if a.shape[-1] > DIM_CAP:
        raise DimensionTooLarge(f"dimension {a.shape[-1]} exceeds cap {DIM_CAP}")
    if a.size == 0:
        return a
    limit = tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    dev = np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1))
    bad = dev > limit
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NotHermitian(
            f"max |m - m^dagger| = {dev[i]:.3e} above {limit[i]:.3e}{first_failure(bad)}"
        )
    return a


def _eigh(a: np.ndarray, tol: float) -> EigenDecomposition:
    w, v = np.linalg.eigh(_checked_hermitian(a, tol).astype(complex))
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def hermitian_eigendecompose(m: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Full eigensystem of a Hermitian matrix.

    Raises NotHermitian if ``max|m - m^dagger|`` exceeds ``tol * max(1, max|m|)``
    and DimensionTooLarge above DIM_CAP. Eigenvalues come back ascending with
    orthonormal columns of eigenvectors.
    """
    return _eigh(_as_square_matrix(m), tol)


def stacked_eigendecompose(m: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigensystems of each Hermitian matrix in a stack of shape (..., d, d).

    Each matrix passes the checks of ``hermitian_eigendecompose`` on its own
    scale, and its eigensystem has the same bits as that function's; a single
    (d, d) matrix is a stack with no leading axes.
    """
    return _eigh(_as_square_stack(m), tol)


def hermitian_eigenvalues(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    Same checks as ``hermitian_eigendecompose``; a real symmetric matrix is
    solved in real arithmetic, not promoted to complex.
    """
    return np.linalg.eigvalsh(_checked_hermitian(_as_square_matrix(m), tol))


def partial_transpose(
    rho: np.ndarray, local_dims: Sequence[int], subset: Sequence[int]
) -> np.ndarray:
    """Transpose the tensor factors named in ``subset``.

    ``rho`` is one matrix or a stack of shape (..., d, d); each matrix is
    transposed alone. ``local_dims`` lists the per-site dimensions in
    row-major (site 0 most significant) order; their product must equal d.
    The subset must be a nonempty proper subset of sites. The result of
    applying the same partial transpose twice is the original matrix.
    """
    a = _as_square_stack(rho)
    dims = tuple(int(d) for d in local_dims)
    if any(d < 1 for d in dims) or not dims:
        raise BadDimensionFactorization("local dimensions must be positive")
    d = math.prod(dims)
    if d != a.shape[-1]:
        raise BadDimensionFactorization(
            f"matrix dimension {a.shape[-1]} != product of local dims {d}"
        )
    n = len(dims)
    sites = sorted(set(int(s) for s in subset))
    if len(sites) != len(list(subset)):
        raise BadDimensionFactorization("subset contains repeats")
    if not sites or len(sites) >= n:
        raise BadDimensionFactorization("subset must be a nonempty proper subset of sites")
    if sites[0] < 0 or sites[-1] >= n:
        raise BadDimensionFactorization(f"subset {sites} out of range for {n} sites")
    lead = a.shape[:-2]
    t = a.reshape(lead + dims + dims)
    k = len(lead)
    axes = list(range(k + 2 * n))
    for s in sites:
        axes[k + s], axes[k + n + s] = axes[k + n + s], axes[k + s]
    return np.ascontiguousarray(t.transpose(axes).reshape(lead + (d, d)))


def root_bracket(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Shrink a sign change of f to two adjacent floats.

    Returns ``(inside, outside)`` with ``f(inside) > 0 >= f(outside)``, both
    values from real evaluations and no float strictly between them, so a
    caller can report the end where it saw the sign it needs. Exactly one
    of ``f(a)``, ``f(b)`` must be positive (NoSignChange otherwise); either
    may be the lower end. Steps are regula falsi with the Illinois halving;
    where the secant stalls against an end, the probes gallop away from that
    end, up to the midpoint.
    """
    x_in, x_out = float(a), float(b)
    f_in, f_out = f(x_in), f(x_out)
    if (f_in > 0.0) == (f_out > 0.0):
        raise NoSignChange(f"f({x_in}) = {f_in:.6g}, f({x_out}) = {f_out:.6g}: need one positive")
    if not f_in > 0.0:
        x_in, f_in, x_out, f_out = x_out, f_out, x_in, f_in
    moved = 0  # +1 after the inside end moved, -1 after the outside end did
    gallop = 0.0
    for _ in range(ROOT_BRACKET_MAX_STEPS):
        if math.nextafter(x_in, x_out) == x_out:
            break
        lo, hi = min(x_in, x_out), max(x_in, x_out)
        # anchored at the end with the smaller value, which sits nearer the root
        (xa, fa), (xb, fb) = sorted(((x_in, f_in), (x_out, f_out)), key=lambda e: abs(e[1]))
        x = xa - fa * ((xa - xb) / (fa - fb)) if fa != fb else math.nan
        if lo < x < hi:
            gallop = 0.0
        else:
            # The secant stalled on that end (rounding, or a run of zeros):
            # step one float away from it, doubling while stalls repeat,
            # never past the midpoint.
            gallop = 2.0 * gallop if gallop else math.ulp(xa)
            x = xa + math.copysign(min(gallop, 0.5 * (hi - lo)), xb - xa)
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        fx = f(x)
        if fx > 0.0:
            x_in, f_in = x, fx
            if moved == 1:
                f_out *= 0.5
            moved = 1
        else:
            x_out, f_out = x, fx
            if moved == -1:
                f_in *= 0.5
            moved = -1
    return x_in, x_out
