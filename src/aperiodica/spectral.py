"""Finite sections of diagonal tight-binding operators.

The operator acts as (L u)_n = u_{n+1} + u_{n-1} + x_n u_n with a
potential x taking finitely many pairwise different values.  Finite
sections cannot certify the spectral type of the infinite operator;
everything here is a finite-size observable: eigenvalues guessed by one
QL sweep and certified by count-only Sturm passes, with bisection where
a guess fails, the integrated density of states, and transfer matrix
products with overflow-safe renormalization.
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
    """Number of eigenvalues strictly below x: the pivots q_i = (a_i - x) -
    1/q_{i-1} of the leading-principal-minor recursion that fall below
    zero, counted in one pass.  A zero pivot is taken as 1e-300.
    """
    count = 0
    r = 0.0  # 1/q of the previous pivot; q = inf before the first, whose pivot is a - x
    for a in op.diagonal:
        q = (a - x) - r
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 1e-300
        r = 1.0 / q
    return count


def _ql_guesses(diagonal):
    """All eigenvalues, ascending, from implicit QL sweeps on the squared
    off-diagonals (the root-free variant of Pal, Walker and Kahan, as in
    LAPACK's dsterf), each within a few ulps of ||T||; or None if an
    eigenvalue takes more than 30 sweeps or a value is not finite.
    """
    d = list(diagonal)
    n = len(d)
    e2 = [1.0] * (n - 1) + [0.0]  # e2[i] couples d[i] and d[i + 1]; 0 ends the matrix
    try:
        small = (2.0**-52 * (max(map(abs, d)) + 2.0)) ** 2
        for l in range(n):
            for _ in range(30):
                m = l
                while e2[m] > small:
                    m += 1
                if m == l:
                    break
                # Shift: the eigenvalue of the leading 2x2 block nearer d[l].
                rte = math.sqrt(e2[l])
                t = (d[l + 1] - d[l]) / (2.0 * rte)
                sigma = d[l] - rte / (t + math.copysign(math.hypot(t, 1.0), t))
                c, s = 1.0, 0.0
                gamma = d[m] - sigma
                p = gamma * gamma
                for i in range(m - 1, l - 1, -1):  # s = 0 first: e2[m] is set to 0
                    bb = e2[i]
                    r = p + bb
                    e2[i + 1] = s * r
                    oldc, c, s = c, p / r, bb / r
                    a = d[i]
                    oldgamma, gamma = gamma, c * (a - sigma) - s * gamma
                    d[i + 1] = oldgamma + (a - gamma)
                    p = gamma * gamma / c if c else oldc * bb
                e2[l] = s * p
                d[l] = sigma + gamma
            else:
                return None
    except (ZeroDivisionError, OverflowError):
        return None
    return sorted(d) if all(map(math.isfinite, d)) else None


def eigenvalues(op, tol=1e-12):
    """All eigenvalues, ascending, each the midpoint of a bracket [a, b]
    with Sturm counts count(a) <= k < count(b) and b - a <= tol, or a and
    b adjacent floats however small ``tol`` is.

    Every probe's Sturm count is kept, so eigenvalue k starts from the
    tightest bracket any earlier probe gave.  Its QL guess g comes first:
    probes at g - d and g + d inside the bracket, d = tol/4 and four times
    as far each round while the bracket is wider than tol and d.  Growing d
    lets a guess off by more than tol/4 still close its bracket from both
    sides in a few rounds.  Only counts close a bracket, so a bad guess
    costs passes, not accuracy: bisection closes whatever the guesses
    leave open, and every bracket when the QL sweep fails.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    diagonal = op.diagonal
    lo, hi = min(diagonal) - 2.0, max(diagonal) + 2.0
    # Every probe so far, ascending, with its Sturm count; the bounds
    # count 0 and n without a pass.
    xs, counts = [lo, hi], [0, op.size]

    def probe(y):
        c = sturm_count(op, y)
        j = bisect_right(xs, y)
        xs.insert(j, y)
        counts.insert(j, c)
        return c

    guesses = _ql_guesses(diagonal)
    out = []
    for k in range(op.size):
        j = bisect_right(counts, k)
        a, b = xs[j - 1], xs[j]
        if guesses:
            g, d = guesses[k], 0.25 * tol
            while b - a > tol and d < b - a:
                for y in (g - d, g + d):
                    if a < y < b:
                        a, b = (y, b) if probe(y) <= k else (a, y)
                d *= 4.0
        while b - a > tol:
            y = 0.5 * a + 0.5 * b  # halves first: the sum may overflow
            if y == a or y == b:
                break
            a, b = (y, b) if probe(y) <= k else (a, y)
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


def transfer_product(energy, potential, values, coupling):
    """Accumulate the transfer matrices of the potential left to right.

    The product maps (u_n, u_{n-1}) to (u_{n+1}, u_n) across the potential;
    an empty potential gives the identity.  Energy, coupling and each factor
    E - coupling * value must be finite; blocks: see the module docstring.
    """
    factor = {x: energy - coupling * v for x, v in dict(values).items()}
    if not all(map(math.isfinite, (energy, coupling, *factor.values()))):
        raise ValueError("energy, coupling and E - coupling * value must be finite")
    hi = 2.0 ** 100 if max(map(abs, factor.values()), default=0.0) < 2.0 ** 900 else 1.0
    blocks = {}
    a, b, c, d, scale = 1.0, 0.0, 0.0, 1.0, 0
    try:
        for i in range(0, len(potential), _BLOCK):
            key = tuple(potential[i : i + _BLOCK])
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
    return TransferMatrixProduct(energy, 0, len(potential), ((a, b), (c, d)), scale)
