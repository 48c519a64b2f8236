"""Finite sections of diagonal tight-binding operators.

The operator acts as (L u)_n = u_{n+1} + u_{n-1} + x_n u_n with a
potential x taking finitely many pairwise different values.  Finite
sections cannot certify the spectral type of the infinite operator;
everything here is a finite-size observable: eigenvalues by Sturm
counting and bisection, the integrated density of states, and transfer
matrix products with overflow-safe renormalization.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

BOUNDARY_DIRICHLET = "dirichlet"
BOUNDARY_NEUMANN = "neumann"


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal finite section with unit off-diagonal entries."""

    diagonal: tuple

    def __post_init__(self):
        object.__setattr__(self, "diagonal", tuple(float(v) for v in self.diagonal))
        if not self.diagonal:
            raise ValueError("operator needs size >= 1")
        if not all(math.isfinite(v) for v in self.diagonal):
            raise ValueError("diagonal entries must be finite")

    @property
    def size(self):
        return len(self.diagonal)


def build_finite(potential, values, coupling, window=None, boundary=BOUNDARY_DIRICHLET):
    """Finite section with diagonal coupling * values[x_n] over an index window.

    ``values`` maps letters to pairwise different reals; ``window`` is a
    (start, stop) pair into the potential word, defaulting to all of it.
    Dirichlet truncation simply chops; Neumann adds the reflected unit
    hop onto the two end diagonal entries, which keeps the section
    tridiagonal and exposes boundary sensitivity.
    """
    if window is None:
        window = (0, len(potential))
    start, stop = window
    if not (0 <= start <= stop <= len(potential)):
        raise ValueError("window must lie within the potential sequence")
    if stop == start:
        raise ValueError("operator needs size >= 1")
    vals = dict(values)
    if len(set(vals.values())) != len(vals):
        raise ValueError("potential values must be pairwise different")
    try:
        diag = [coupling * vals[a] for a in potential[start:stop]]
    except KeyError as exc:
        raise ValueError(f"no value assigned to letter {exc}") from None
    if boundary == BOUNDARY_NEUMANN:
        diag[0] += 1.0
        diag[-1] += 1.0
    elif boundary != BOUNDARY_DIRICHLET:
        raise ValueError(f"unknown boundary {boundary!r}")
    return TridiagonalOperator(tuple(diag))


def sturm_count(op, x):
    """Number of eigenvalues strictly below x, via the sign pattern of the
    leading-principal-minor recursion."""
    count = 0
    q = 1.0
    for i, a in enumerate(op.diagonal):
        q = (a - x) if i == 0 else (a - x) - 1.0 / q
        if q == 0.0:
            q = 1e-300
        if q < 0.0:
            count += 1
    return count


def _bounds(op):
    lo = min(op.diagonal) - 2.0
    hi = max(op.diagonal) + 2.0
    return lo, hi


def eigenvalues(op, tol=1e-12):
    """All eigenvalues, ascending, each bracketed to width <= tol by bisection.

    A bracket that narrows to adjacent floats stops there, however small
    ``tol`` is.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    lo, hi = _bounds(op)
    out = []
    a_floor = lo
    for k in range(op.size):
        a, b = a_floor, hi
        while b - a > tol:
            mid = 0.5 * a + 0.5 * b  # halves first: the sum may overflow
            if mid == a or mid == b:
                break
            if sturm_count(op, mid) <= k:
                a = mid
            else:
                b = mid
        out.append(0.5 * a + 0.5 * b)
        a_floor = a
    return out


def ids(eigs, energy):
    """Integrated density of states: fraction of eigenvalues <= energy."""
    if not eigs:
        raise ValueError("need a nonempty spectrum")
    return bisect_right(eigs, energy) / len(eigs)


@dataclass(frozen=True)
class TransferMatrixProduct:
    """Ordered product of factors [[E - x_n, -1], [1, 0]] over an index range.

    The stored matrix is renormalized by an exact power of two to avoid
    overflow; the true product is 2**scale_pow2 times ``matrix``.
    """

    energy: float
    start: int
    stop: int
    matrix: tuple
    scale_pow2: int

    @property
    def count(self):
        return self.stop - self.start

    def determinant_error(self):
        """|det - 1| of the true (unscaled) product.

        Once the product has grown past float precision the cancellation
        in ad - bc leaves no determinant information; the error then
        reads as large or infinite, which is the honest answer.
        """
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        try:
            return abs(math.ldexp(det, 2 * self.scale_pow2) - 1.0)
        except OverflowError:
            return math.inf

    def growth_rate(self):
        """log of the product's max-norm per factor; a Lyapunov-type estimate."""
        if self.count == 0:
            return 0.0
        norm = max(abs(e) for row in self.matrix for e in row)
        return (self.scale_pow2 * math.log(2.0) + math.log(norm)) / self.count


def transfer_product(energy, potential, values, coupling, window=None):
    """Accumulate the transfer matrices of the window left to right.

    The product maps (u_n, u_{n-1}) to (u_{n+1}, u_n) across the window;
    an empty window gives the identity.
    """
    if window is None:
        window = (0, len(potential))
    start, stop = window
    if not (0 <= start <= stop <= len(potential)):
        raise ValueError("window must lie within the potential sequence")
    vals = dict(values)
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    scale = 0
    for i in range(start, stop):
        v = energy - coupling * vals[potential[i]]
        a, b, c, d = v * a - c, v * b - d, a, b
        big = max(abs(a), abs(b), abs(c), abs(d))
        if big > 2.0 ** 100 or (big != 0.0 and big < 2.0 ** -100):
            e = math.frexp(big)[1]
            a, b, c, d = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e), math.ldexp(d, -e)
            scale += e
    return TransferMatrixProduct(energy, start, stop, ((a, b), (c, d)), scale)
