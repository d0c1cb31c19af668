"""Dense linear-algebra and scalar primitives used by the rest of the package.

Matrices are plain numpy arrays. The Hamiltonians built in ``systems`` are
real; ``hermitian_eigendecompose`` promotes its input to complex, so its
eigenvectors are complex, while ``hermitian_eigenvalues`` and
``chiral_eigenvalues`` solve real symmetric input in real arithmetic.
Dimensions are capped at ``DIM_CAP`` (12 qubit sites) because everything
here is meant for small exact diagonalisation, not for large-scale
simulation.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NoSignChange, ThermwitError

DIM_CAP = 4096
HERMITICITY_TOL = 1e-12
# A guard only: the steps meet within a few dozen evaluations on smooth
# functions, and even plain halving closes any finite bracket in under 2,100.
ROOT_BRACKET_MAX_STEPS = 2200


def _as_square_stack(m: np.ndarray) -> np.ndarray:
    """``m`` as one square matrix or a stack of them, shape (..., d, d)."""
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ThermwitError(f"expected square matrices, got shape {a.shape}")
    return a


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d result (one matrix, one kT), the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def first_failure(flags: np.ndarray) -> str:
    """Where a per-matrix test first failed: '' for one matrix, ' at index i' in a stack."""
    flags = np.asarray(flags)
    if flags.ndim == 0:
        return ""
    first = np.unravel_index(int(np.argmax(flags)), flags.shape)
    return f" at index {tuple(int(i) for i in first)}"


def _checked_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as an array, unconverted, once it is one square matrix or a stack
    of them, no larger than DIM_CAP, and each is Hermitian on its own scale."""
    a = _as_square_stack(m)
    if a.shape[-1] > DIM_CAP:
        raise ThermwitError(f"dimension {a.shape[-1]} exceeds cap {DIM_CAP}")
    if a.size == 0:
        return a
    limit = HERMITICITY_TOL * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    dev = np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1))
    bad = dev > limit
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ThermwitError(
            f"max |m - m^dagger| = {dev[i]:.3e} above {limit[i]:.3e}{first_failure(bad)}"
        )
    return a


def hermitian_eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix, or of each in a stack (..., d, d).

    Returns ``np.linalg.eigh``'s pair ``(w, v)``: eigenvalues ascending,
    ``v[..., :, j]`` the unit eigenvector for ``w[..., j]``. Each matrix
    must pass ``max|m - m^dagger| <= HERMITICITY_TOL * max(1, max|m|)`` on
    its own scale and have dimension at most DIM_CAP; a stack's results have
    the bits each matrix gives alone.
    """
    return np.linalg.eigh(_checked_hermitian(m).astype(complex, copy=False))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, without eigenvectors.

    Same checks as ``hermitian_eigendecompose``; a real symmetric matrix is
    solved in real arithmetic, not promoted to complex.
    """
    return np.linalg.eigvalsh(_checked_hermitian(m))


def chiral_eigenvalues(m: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix that is odd under a parity.

    ``odd`` is a boolean mask over the basis, true on exactly half of it.
    ``m`` must vanish exactly on the two diagonal blocks the mask and its
    complement cut out, so that in the even/odd basis it is [[0, C], [C^H, 0]];
    its eigenvalues are then exactly the singular values of C and their
    negatives (Golub & Van Loan, *Matrix Computations*, section 8.6), found by
    an SVD of half the dimension. The pair C, C^H must pass the rule of
    ``hermitian_eigenvalues`` on the scale of all of ``m``, and the
    dimension is capped at DIM_CAP.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ThermwitError(f"expected one square matrix, got shape {a.shape}")
    if a.shape[0] > DIM_CAP:
        raise ThermwitError(f"dimension {a.shape[0]} exceeds cap {DIM_CAP}")
    mask = np.asarray(odd, dtype=bool)
    if mask.shape != a.shape[:1]:
        raise ThermwitError(f"parity mask of shape {mask.shape} for dimension {a.shape[0]}")
    even_idx, odd_idx = np.flatnonzero(~mask), np.flatnonzero(mask)
    if even_idx.size != odd_idx.size:
        raise ThermwitError(f"parity halves of {even_idx.size} and {odd_idx.size} are unequal")
    c, c_back = a[np.ix_(even_idx, odd_idx)], a[np.ix_(odd_idx, even_idx)]
    # the diagonal blocks are zero exactly when every nonzero (NaN included)
    # lies in the two off-diagonal ones
    if np.count_nonzero(a) != np.count_nonzero(c) + np.count_nonzero(c_back):
        raise ThermwitError("matrix has a nonzero entry in a diagonal parity block")
    if c.size == 0:
        return np.zeros(0)
    limit = HERMITICITY_TOL * max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(c_back))))
    # |c - c_back^H| is |conj(c_back) - c^T| transposed: built in c_back's
    # own buffer, which then goes before the SVD
    np.conjugate(c_back, out=c_back)
    np.subtract(c_back, c.T, out=c_back)
    dev = float(np.max(np.abs(c_back, out=c_back).real))
    del c_back
    if dev > limit:
        raise ThermwitError(f"max |m - m^dagger| = {dev:.3e} above {limit:.3e}")
    s = np.linalg.svd(c, compute_uv=False)
    return np.concatenate((-s, s[::-1]))


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
        raise ThermwitError("local dimensions must be positive")
    d = math.prod(dims)
    if d != a.shape[-1]:
        raise ThermwitError(f"matrix dimension {a.shape[-1]} != product of local dims {d}")
    n = len(dims)
    sites = sorted(set(int(s) for s in subset))
    if len(sites) != len(list(subset)):
        raise ThermwitError("subset contains repeats")
    if not sites or len(sites) >= n:
        raise ThermwitError("subset must be a nonempty proper subset of sites")
    if sites[0] < 0 or sites[-1] >= n:
        raise ThermwitError(f"subset {sites} out of range for {n} sites")
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
