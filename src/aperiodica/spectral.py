"""Finite sections of diagonal tight-binding operators.

The operator acts as (L u)_n = u_{n+1} + u_{n-1} + x_n u_n with a
potential x taking finitely many pairwise different values.  Finite
sections cannot certify the spectral type of the infinite operator;
everything here is a finite-size observable: eigenvalues by Sturm
counting with safeguarded Newton steps, the integrated density of
states, and transfer matrix products with overflow-safe renormalization.
A minimal potential has few distinct factors (n + 1 of length n if
Sturmian, 8n - 8 for Rudin-Shapiro), so a transfer product builds each
distinct aligned 32-letter block once and applies it by one 2x2 multiply.
Its renormalization keeps every step finite (|E - coupling * x| >= 2^900
included); each entry is within 4 n 2^-52 ||M|| of the exact product M in
the hyperbolic regime and in the bounded one away from band edges.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

BOUNDARY_DIRICHLET = "dirichlet"
BOUNDARY_NEUMANN = "neumann"
_BLOCK = 32  # letters per transfer-product block
# Sites of a section the CLI solves: a solve peaked about 700 bytes of
# RSS a site (at 3000 and 6000 sites), so 250000 stay within 200 MB.
MAX_SITES = 250_000


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


def build_finite(potential, values, coupling, boundary=BOUNDARY_DIRICHLET):
    """Finite section with diagonal coupling * values[x_n] over the potential word.

    ``values`` maps letters to pairwise different reals.  Dirichlet
    truncation simply chops; Neumann adds the reflected unit hop onto
    the two end diagonal entries, which keeps the section tridiagonal
    and exposes boundary sensitivity.
    """
    if not potential:
        raise ValueError("operator needs size >= 1")
    vals = dict(values)
    if len(set(vals.values())) != len(vals):
        raise ValueError("potential values must be pairwise different")
    try:
        diag = [coupling * vals[a] for a in potential]
    except KeyError as exc:
        raise ValueError(f"no value assigned to letter {exc}") from None
    if boundary == BOUNDARY_NEUMANN:
        diag[0] += 1.0
        diag[-1] += 1.0
    elif boundary != BOUNDARY_DIRICHLET:
        raise ValueError(f"unknown boundary {boundary!r}")
    return TridiagonalOperator(tuple(diag))


def sturm_count(op, x):
    """One pass of the leading-principal-minor recursion at x.

    Returns ``(count, slope)``: the number of pivots q_i = (a_i - x) -
    1/q_{i-1} below zero, which is the number of eigenvalues strictly
    below x, and slope = d/dx log|det(T - x)| = sum q_i'/q_i, with
    q_i' = -1 + q_{i-1}'/q_{i-1}^2 carried in the same loop.
    """
    count = 0
    slope = 0.0
    dq = 0.0
    r = 0.0  # 1/q of the previous pivot; q = inf before the first, whose pivot is a - x
    for a in op.diagonal:
        dq = dq * r * r - 1.0
        q = (a - x) - r
        if q == 0.0:
            q = 1e-300
        if q < 0.0:
            count += 1
        r = 1.0 / q
        slope += dq * r
    return count, slope


def eigenvalues(op, tol=1e-12):
    """All eigenvalues, ascending, each the midpoint of a bracket [a, b]
    with Sturm counts count(a) <= k < count(b) and b - a <= tol, or a and
    b adjacent floats however small ``tol`` is.

    Every probe's Sturm count is kept, so eigenvalue k starts from the
    tightest bracket any earlier probe gave.  Inside it, a Newton step
    on det(T - x), x - 1/slope, is taken from the last probe when the
    bracket holds only eigenvalue k; the Sturm count says which side of
    the eigenvalue each probe lies on.  A step that leaves the bracket,
    is not finite, or is longer than half the previous step is replaced
    by bisection.  A step shorter than tol/4 is not taken: one probe
    tol/2 beyond the last point closes the bracket instead.  Newton runs
    on the determinant rather than on the last pivot because the pivot
    has a pole at each eigenvalue of the leading minor, which sits
    exponentially close to the eigenvalue when its eigenvector is
    localised; the determinant has no poles.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    diagonal = op.diagonal
    lo, hi = min(diagonal) - 2.0, max(diagonal) + 2.0
    # Every probe so far, ascending, with its Sturm count; the bounds
    # count 0 and n without a pass.
    xs, counts = [lo, hi], [0, op.size]
    out = []
    for k in range(op.size):
        j = bisect_right(counts, k)
        a, b = xs[j - 1], xs[j]
        isolated = counts[j] - counts[j - 1] == 1
        x, slope = a, None  # no slope yet: the first probe bisects
        while b - a > tol:
            mid = 0.5 * a + 0.5 * b  # halves first: the sum may overflow
            y = mid
            if isolated and slope and math.isfinite(slope):
                step = -1.0 / slope
                if abs(step) < 0.25 * tol:
                    y = x + math.copysign(0.5 * tol, step)
                elif abs(step) <= 0.5 * prev:
                    y = x + step
                if not a < y < b:
                    y = mid
            if y == a or y == b:
                break
            c, slope = sturm_count(op, y)
            prev, x = abs(y - x), y
            j = bisect_right(xs, y)
            xs.insert(j, y)
            counts.insert(j, c)
            if c <= k:
                a = y
                isolated = counts[j + 1] - c == 1
            else:
                b = y
                isolated = c - counts[j - 1] == 1
        out.append(0.5 * a + 0.5 * b)
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
        """Finite-n Lyapunov estimate: log of the true product's max-norm per factor."""
        if self.count == 0:
            return 0.0
        norm = max(abs(e) for row in self.matrix for e in row)
        return (self.scale_pow2 * math.log(2.0) + math.log(norm)) / self.count


def _steps(letters, factor, hi):
    """(a, b, c, d, scale) of the product of [[factor[x], -1], [1, 0]] over
    the letters x, each multiplied on the left; renormalized outside [2^-100, hi]."""
    a, b, c, d, scale = 1.0, 0.0, 0.0, 1.0, 0
    for x in letters:
        v = factor[x]
        a, b, c, d = v * a - c, v * b - d, a, b
        big = max(abs(a), abs(b), abs(c), abs(d))
        if big > hi or (big != 0.0 and big < 2.0 ** -100):
            e = math.frexp(big)[1]
            a, b, c, d = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e), math.ldexp(d, -e)
            scale += e
    return a, b, c, d, scale


def transfer_product(energy, potential, values, coupling, window=None):
    """Accumulate the transfer matrices of the window left to right.

    The product maps (u_n, u_{n-1}) to (u_{n+1}, u_n) across the window;
    an empty window gives the identity.  Energy, coupling and each factor
    E - coupling * value must be finite; blocks: see the module docstring.
    """
    start, stop = (0, len(potential)) if window is None else window
    if not (0 <= start <= stop <= len(potential)):
        raise ValueError("window must lie within the potential sequence")
    factor = {x: energy - coupling * v for x, v in dict(values).items()}
    if not all(map(math.isfinite, (energy, coupling, *factor.values()))):
        raise ValueError("energy, coupling and E - coupling * value must be finite")
    hi = 2.0 ** 100 if max(map(abs, factor.values()), default=0.0) < 2.0 ** 900 else 1.0
    blocks = {}
    a, b, c, d, scale = 1.0, 0.0, 0.0, 1.0, 0
    try:
        for i in range(start, stop, _BLOCK):
            key = tuple(potential[i : min(i + _BLOCK, stop)])
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _steps(key, factor, hi)
            p, q, r, s, e = block
            a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
            big = max(abs(a), abs(b), abs(c), abs(d))
            if big > hi or (big != 0.0 and big < 2.0 ** -100):
                g = math.frexp(big)[1]
                a, b, c, d, e = *(math.ldexp(x, -g) for x in (a, b, c, d)), e + g
            scale += e
    except KeyError as exc:
        raise ValueError(f"no value assigned to letter {exc}") from None
    return TransferMatrixProduct(energy, start, stop, ((a, b), (c, d)), scale)
