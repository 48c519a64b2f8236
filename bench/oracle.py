"""Reference computations made apart from the package.

Model sets come from an exact integer enumeration, eigenvalues from numpy
and transfer products from a loop of explicit 2x2 products; factor sets
come from plain expansion (``inputs.factor_sets``, which the input
generator shares).  None of this imports the package.
"""

from __future__ import annotations

import math
import string
from fractions import Fraction

from inputs import expand

# --- words -----------------------------------------------------------------


def is_palindrome(w):
    return w == w[::-1]


def chop_verdict(sets):
    """The chop rule: two consecutive lengths without palindromes exclude
    every longer length.  ``sets[n - 1]`` holds the length-n factors."""
    with_pal = [n for n, words in enumerate(sets, 1) if any(is_palindrome(w) for w in words)]
    pair = None
    for n in range(1, len(sets)):
        if n not in with_pal and n + 1 not in with_pal:
            pair = n
            break
    return {
        "lengths_with_palindromes": with_pal,
        "first_excluding_pair": pair,
        "status": "excluded" if pair is not None else "undetermined",
    }


PHI = str.maketrans({"a": "0", "b": "0", "c": "1", "d": "1"})


def table_statuses(sets):
    """yes/no per length, blank past the first excluding pair + 1."""
    pair = chop_verdict(sets)["first_excluding_pair"]
    out = []
    for n, words in enumerate(sets, 1):
        if pair is not None and n > pair + 1:
            out.append("")
        else:
            out.append("yes" if any(is_palindrome(w) for w in words) else "no")
    return out


# --- model sets --------------------------------------------------------------
#
# Lattice points are m + n*omega.  For "golden" (d = 5), 2x = (2m + n) + n*sqrt5
# and 2x* = (2m + n) - n*sqrt5; for "sqrt" (d = 2), 2x = 2m + 2n*sqrt2 and
# 2x* = 2m - 2n*sqrt2.  Every decision below is a sign of a + b*sqrt(d) for
# integers a, b.

FIELD = {"golden": (5, 1, 1), "sqrt": (2, 0, 2)}  # d, g, h: 2x = (2m + g n) + h n sqrt(d)


def sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers a, b and non-square d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    if a > 0:
        return 1 if a * a > b * b * d else -1
    return 1 if b * b * d > a * a else -1


class ModelSet:
    """The cut-and-project set of a window [lo, hi] with |x| <= R.

    Endpoints are (p, q) pairs of Fractions meaning p + q*sqrt(d).
    """

    def __init__(self, kind, lo, hi, radius):
        self.kind = kind
        self.d, self.g, self.h = FIELD[kind]
        self.lo = tuple(Fraction(v) for v in lo)
        self.hi = tuple(Fraction(v) for v in hi)
        self.radius = Fraction(radius)
        root = math.sqrt(self.d)
        self.omega_f = (self.g + self.h * root) / 2
        self.omega_star_f = (self.g - self.h * root) / 2

    def _cmp(self, m, n, target, conj):
        """sign of x - target (conj=False) or x* - target (conj=True),
        target a (p, q) pair."""
        p, q = target
        den = math.lcm(p.denominator, q.denominator)
        a = (2 * m + self.g * n) * den - int(2 * p * den)
        b = (-1 if conj else 1) * self.h * n * den - int(2 * q * den)
        return sign(a, b, self.d)

    def above_minus_radius(self, m, n):
        return self._cmp(m, n, (-self.radius, Fraction(0)), False) >= 0

    def below_radius(self, m, n):
        return self._cmp(m, n, (self.radius, Fraction(0)), False) <= 0

    def in_radius(self, m, n):
        return self.above_minus_radius(m, n) and self.below_radius(m, n)

    def in_window(self, m, n):
        return self._cmp(m, n, self.lo, True) >= 0 and self._cmp(m, n, self.hi, True) <= 0

    def contains(self, m, n):
        return self.in_radius(m, n) and self.in_window(m, n)

    def value(self, m, n):
        return m + n * self.omega_f

    def less(self, a, b):
        """Exact a < b for lattice points given as (m, n)."""
        dm, dn = b[0] - a[0], b[1] - a[1]
        return sign(2 * dm + self.g * dn, self.h * dn, self.d) > 0

    def points(self):
        """All (m, n) of the set, in increasing order.

        Floats only propose candidate m per row: each candidate within
        1e-6 of a bound (far above the float error of values below 1e7)
        is decided exactly, the others lie strictly inside or outside.
        """
        R = float(self.radius)
        lo_f = float(self.lo[0]) + float(self.lo[1]) * math.sqrt(self.d)
        hi_f = float(self.hi[0]) + float(self.hi[1]) * math.sqrt(self.d)
        spread = self.omega_f - self.omega_star_f
        # x - x* = n * spread with |x| <= R and lo <= x* <= hi
        n_lo = math.floor((-R - hi_f) / spread) - 1
        n_hi = math.ceil((R - lo_f) / spread) + 1
        eps = 1e-6
        out = []
        for n in range(n_lo, n_hi + 1):
            a = max(-R - n * self.omega_f, lo_f - n * self.omega_star_f)
            b = min(R - n * self.omega_f, hi_f - n * self.omega_star_f)
            for m in range(math.floor(a - eps), math.ceil(b + eps) + 1):
                if a + eps < m < b - eps:
                    out.append((m, n))
                elif m < a - eps or m > b + eps:
                    continue
                elif self.contains(m, n):
                    out.append((m, n))
        out.sort(key=lambda mn: self.value(*mn))
        return out

    def gaps(self, points):
        """Distinct consecutive differences, ascending, exactly checked to
        be positive (which certifies the float sort)."""
        steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])}
        zero = (0, 0)
        for s in steps:
            if not self.less(zero, s):
                raise ValueError(f"oracle sort produced a non-positive gap {s}")
        ordered = []
        for s in steps:
            k = sum(1 for t in steps if self.less(t, s))
            ordered.append((k, s))
        return [s for _, s in sorted(ordered)]

    def letters(self, points):
        gaps = self.gaps(points)
        index = {g: string.ascii_lowercase[i] for i, g in enumerate(gaps)}
        return "".join(index[(b[0] - a[0], b[1] - a[1])] for a, b in zip(points, points[1:]))

    def times_omega(self, mn):
        """(m + n*omega) * omega in (m, n) coordinates (golden: omega^2 = omega + 1)."""
        m, n = mn
        if self.kind != "golden":
            raise ValueError("only the golden lattice has omega^2 in the lattice basis")
        return (n, m + n)

    def overlap_members(self, points, shift):
        """Both sides of -L = L + t restricted to [-R + max(t, 0), R + min(t, 0)],
        as (m, n) sets; t = shift in (m, n) coordinates."""
        tm, tn = shift
        t_pos = self.less((0, 0), shift)
        t_neg = self.less(shift, (0, 0))

        def inside(m, n):
            # -R + max(t, 0) <= x <= R + min(t, 0), decided exactly
            low = (m - tm, n - tn) if t_pos else (m, n)
            high = (m - tm, n - tn) if t_neg else (m, n)
            return self.above_minus_radius(*low) and self.below_radius(*high)

        negated = {(-m, -n) for m, n in points if inside(-m, -n)}
        shifted = {(m + tm, n + tn) for m, n in points if inside(m + tm, n + tn)}
        return negated, shifted


def maximal_palindromes(seq):
    """(doubled centre, length) of the maximal palindrome at every centre
    of seq that holds one (every letter, and every gap between two equal
    letters), ordered by length descending, then by centre.

    Manacher's algorithm on seq with a separator around every letter: in
    that string position i is the doubled centre i - 1 of seq, and the
    radius there is the palindrome's length in seq.
    """
    t = "|" + "|".join(seq) + "|"
    size = len(t)
    radius = [0] * size
    centre = right = 0
    for i in range(size):
        k = min(radius[2 * centre - i], right - i) if i < right else 0
        while i - k - 1 >= 0 and i + k + 1 < size and t[i - k - 1] == t[i + k + 1]:
            k += 1
        radius[i] = k
        if i + k > right:
            centre, right = i, i + k
    rows = [(i - 1, k) for i, k in enumerate(radius) if k > 0]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def palindrome_problem(seq, center2, length):
    """None when seq holds a maximal palindrome of this length at this
    doubled centre, else what is wrong with it."""
    if (center2 - length + 1) % 2:
        return "centre and length have mismatched parity"
    i = (center2 - length + 1) // 2
    j = i + length - 1
    if length < 1 or i < 0 or j >= len(seq):
        return "out of range"
    piece = seq[i : j + 1]
    if piece != piece[::-1]:
        return "not a palindrome"
    if i > 0 and j + 1 < len(seq) and seq[i - 1] == seq[j + 1]:
        return "not maximal: extends by one letter on each side"
    return None


# --- spectra -----------------------------------------------------------------


def potential_prefix(images, size):
    return expand(images, size)[:size]


def eigvalsh(diagonal):
    """Eigenvalues of the tridiagonal matrix with unit off-diagonal."""
    import numpy as np

    n = len(diagonal)
    a = np.diag(np.asarray(diagonal, dtype=float))
    if n > 1:
        idx = np.arange(n - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
    return [float(v) for v in np.linalg.eigvalsh(a)]


def transfer_matrix(energy, potential, values, coupling):
    """The product of [[E - V_n, -1], [1, 0]] over the potential, as
    (matrix, power of two), rescaling whenever an entry leaves [2^-60, 2^60]."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    scale = 0
    for letter in potential:
        v = energy - coupling * values[letter]
        a, b, c, d = v * a - c, v * b - d, a, b
        big = max(abs(a), abs(b), abs(c), abs(d))
        if big > 2.0**60 or (0.0 < big < 2.0**-60):
            e = math.frexp(big)[1]
            a, b, c, d = (math.ldexp(x, -e) for x in (a, b, c, d))
            scale += e
    return ((a, b), (c, d)), scale
