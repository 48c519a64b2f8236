"""Codimension-one cut-and-project point sets over real quadratic fields.

Physical and internal space are both the real line; the lattice is
Z + Z*omega embedded through z -> (z, z~) with z~ the Galois conjugate.
One :class:`QuadField` fixes the field and its lattice; the model-set
API carries each lattice point m + n*omega as its exact (m, n), and
``FieldElement`` holds internal-space numbers such as window ends.
All membership, order and symmetry decisions are made in exact
arithmetic, and every exact sign and order reads one exact floor,
``_floor_scaled``.  Global inversion symmetry is decided from the
window alone; a patch enumerated within a radius R is a finite sample,
which the gap and palindrome readings work on.  The walk decides each
step on integers: a linear integer reading of a + b*sqrt(d) that
decides outside a proven band around the window edges, and an exact
sign test inside it.  Floats are renderings only; the CLI makes them
from lattice coordinates (m, n).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .words import _manacher

OMEGA_SQRT = "sqrt"
OMEGA_GOLDEN = "golden"


# _is_squarefree trial-divides up to sqrt(d): about 33000 steps at this bound.
MAX_D = 2**32


def _is_squarefree(d):
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class QuadField:
    """The field extending the rationals by sqrt(d), d squarefree with
    1 < d <= MAX_D, and its lattice {(z, z~) : z = m + n*omega}.

    ``omega_style`` picks the lattice generator: "sqrt" for sqrt(d) and
    "golden" for (1 + sqrt(d)) / 2.  ``element(p, q)`` is the number
    p + q*sqrt(d), and ``point(m, n)`` the lattice point m + n*omega.
    """

    d: int
    omega_style: str = OMEGA_SQRT

    def __post_init__(self):
        d = self.d
        if isinstance(d, bool) or not (isinstance(d, int) and 1 < d <= MAX_D and _is_squarefree(d)):
            raise ValueError(f"d must be a squarefree integer with 1 < d <= MAX_D = {MAX_D}, got {d!r}")
        if self.omega_style not in (OMEGA_SQRT, OMEGA_GOLDEN):
            raise ValueError(f"unknown omega style {self.omega_style!r}")

    def element(self, p, q=0):
        return FieldElement(self.d, p, q)

    def omega(self):
        if self.omega_style == OMEGA_SQRT:
            return FieldElement(self.d, 0, 1)
        return FieldElement(self.d, Fraction(1, 2), Fraction(1, 2))

    def omega_star(self):
        return self.omega().conjugate()

    def point(self, m, n):
        """The lattice point m + n*omega in physical space."""
        return self.element(m) + self.omega() * n

    def star_coords(self, z):
        """(m, n) with z = m + n*omega~, or None when z is not in the star image."""
        if z.d != self.d:
            raise ValueError("element from a different field")
        if self.omega_style == OMEGA_SQRT:
            m, n = z.p, -z.q
        else:
            m, n = z.p + z.q, -2 * z.q
        if m.denominator == 1 and n.denominator == 1:
            return int(m), int(n)
        return None


@total_ordering
class FieldElement:
    """Exact element p + q*sqrt(d) with rational p, q."""

    __slots__ = ("d", "p", "q")

    def __init__(self, d, p=0, q=0):
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.d != self.d:
                raise ValueError(f"mixed fields: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.d, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.d, self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.d, self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.d, -self.p, -self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.d, self.p * o.p + self.q * o.q * self.d, self.p * o.q + self.q * o.p
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.p * o.p - o.q * o.q * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * o.conjugate()
        return FieldElement(self.d, num.p / norm, num.q / norm)

    def conjugate(self):
        """Galois conjugate p - q*sqrt(d)."""
        return FieldElement(self.d, self.p, -self.q)

    def sign(self):
        """Exact sign in {-1, 0, 1}, read off the exact floor: for q != 0
        the value is irrational, so it is positive exactly when its floor
        is not negative."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        return 1 if self.floor() >= 0 else -1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        return hash((self.d, self.p, self.q))

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self):
        """Exact integer floor, over the common denominator of p and q."""
        scale = math.lcm(self.p.denominator, self.q.denominator)
        return _floor_scaled(int(self.p * scale), int(self.q * scale), scale, self.d)

    def ceil(self):
        return -((-self).floor())

    def __repr__(self):
        return f"FieldElement({self.d}, {self.p!r}, {self.q!r})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        return f"{self.p}{'+' if self.q >= 0 else '-'}{abs(self.q)}*sqrt({self.d})"


def star(z):
    """The internal-space image of a lattice-span element: Galois conjugation."""
    return z.conjugate()


@dataclass(frozen=True)
class Window:
    """Closed internal-space interval [lo, hi] with lo < hi.

    Compactness and closure-of-interior hold by construction; the
    boundary is two points and so has measure zero.
    """

    lo: FieldElement
    hi: FieldElement

    def __post_init__(self):
        if self.lo.d != self.hi.d:
            raise ValueError("window endpoints from different fields")
        if not self.lo < self.hi:
            raise ValueError("window needs lo < hi")

    def contains(self, z):
        return not (z < self.lo) and not (self.hi < z)

    def shift(self, s):
        return Window(self.lo + s, self.hi + s)


def centro_symmetry_center(window):
    """The c with -window + c = window; for an interval this is lo + hi."""
    return window.lo + window.hi


def check_generic(window, lattice):
    """The window ends that lie in the lattice's star image, the W4
    obstructions: W4 holds exactly when the tuple is empty.  W1..W3 hold
    for every :class:`Window` by construction."""
    return tuple(e for e in (window.lo, window.hi) if lattice.star_coords(e) is not None)


SHIFT_DENOMINATOR = 16


def genericity_shift(window, lattice):
    """Smallest grid shift restoring W4, scanning k/SHIFT_DENOMINATOR with
    increasing |k|, positive first.

    The star image meets Q in Z, so an endpoint e + s lies in it for at
    most one residue of the rational shift s mod 1.  The two endpoints
    block at most two of +-1/16, +-2/16, and the scan ends by |k| = 2.
    """
    for k in itertools.count(1):
        for s in (Fraction(k, SHIFT_DENOMINATOR), Fraction(-k, SHIFT_DENOMINATOR)):
            if not check_generic(window.shift(s), lattice):
                return s


@dataclass(frozen=True)
class ModelSetPatch:
    """The points of the cut-and-project set within [-R, R].

    ``coords`` holds exact (m, n) lattice coordinates in increasing
    physical position, the order in which ``enumerate_patch`` walks them.
    ``gap_coords`` holds the distinct steps between consecutive points in
    increasing order, and ``letters[i]`` is the index in ``gap_coords`` of
    the step from point i to point i + 1; the walk records both.  A patch
    is a finite sample: the inversion verdict reads the window alone, and
    the palindrome and gap readings hold for this patch only.
    """

    lattice: QuadField
    window: Window
    radius: Fraction
    coords: tuple
    gap_coords: tuple
    letters: tuple

    def __len__(self):
        return len(self.coords)


def _floor_scaled(a, b, scale, d):
    """floor((a + b*sqrt(d)) / scale) for integers a, b and scale > 0.

    For b != 0 the value is irrational, so floor(b*sqrt(d)) is isqrt of
    b*b*d (shifted by one for negative b) and the outer floor reduces to
    integer division.
    """
    if b == 0:
        return a // scale
    s = math.isqrt(b * b * d)
    t = a + (s if b > 0 else -s - 1)
    return t // scale


def _row_points(lattice, lo, hi, x_lo, x_hi):
    """Every (m, n) with x_lo <= m + n*omega <= x_hi and lo <= m + n*omega~ <= hi.

    For each feasible n the two constraints pin m to an exact integer
    interval, so the enumeration is complete by construction.  Points come
    row by row in n, not in physical order.  The inner loop runs on
    integers scaled by a common denominator.
    """
    d = lattice.d
    omega = lattice.omega()
    omega_star = lattice.omega_star()
    spread = omega - omega_star
    n_lo = ((x_lo - hi) / spread).ceil()
    n_hi = ((x_hi - lo) / spread).floor()
    parts = (x_lo, x_hi, omega.p, omega.q, lo.p, lo.q, hi.p, hi.q)
    scale = math.lcm(*(f.denominator for f in parts))
    xlo_i, xhi_i = int(x_lo * scale), int(x_hi * scale)
    wp_i, wq_i = int(omega.p * scale), int(omega.q * scale)
    sp_i, sq_i = int(omega_star.p * scale), int(omega_star.q * scale)
    lop_i, loq_i = int(lo.p * scale), int(lo.q * scale)
    hip_i, hiq_i = int(hi.p * scale), int(hi.q * scale)
    out = []
    for n in range(n_lo, n_hi + 1):
        m_start = max(
            -_floor_scaled(n * wp_i - xlo_i, n * wq_i, scale, d),
            -_floor_scaled(n * sp_i - lop_i, n * sq_i - loq_i, scale, d),
        )
        m_end = min(
            _floor_scaled(xhi_i - n * wp_i, -n * wq_i, scale, d),
            _floor_scaled(hip_i - n * sp_i, hiq_i - n * sq_i, scale, d),
        )
        out.extend((m, n) for m in range(m_start, m_end + 1))
    return out


# A generate payload of this many points peaks near 110 MiB on CPython
# 3.11; the largest patch the tests build has about 107000 points.
MAX_PATCH_POINTS = 250_000


def expected_count(lattice, window, radius):
    """2R|W| / |omega - omega*|, exactly: |omega - omega*| is the lattice's
    covolume, so the model set has density |W| / |omega - omega*| and the
    patch within radius R about 2R times that many points."""
    return (window.hi - window.lo) * (2 * Fraction(radius)) / (lattice.omega() - lattice.omega_star())


def _coordinate_bounds(lattice, window, radius):
    """(M, N) with |m| < M and |n| < N for every point m + n*omega of the
    patch within radius R: a point z has |z| <= R and |z*| <= |lo| + |hi|,
    so |n| = |z - z*| / (omega - omega*) and |m| = |z - n*omega|."""
    omega = lattice.omega()
    n_max = ((radius + abs(window.lo) + abs(window.hi)) / (omega - lattice.omega_star())).floor() + 1
    return (radius + abs(omega) * n_max).floor() + 1, n_max


def enumerate_patch(lattice, window, radius):
    """All lattice points z with |z| <= radius whose star image lies in the window.

    A radius whose expected point count 2R|W| / |omega - omega*| exceeds
    ``MAX_PATCH_POINTS`` is refused with ValueError before the walk.

    The patch is walked gap by gap from its least point: the successor of
    x is x + g for the smallest lattice g > 0 with x* + g* in the window.
    Any such g has |g*| <= |W|, so the candidates are every lattice g in
    (0, B] with |g*| <= |W|, in exact order; when none fits, no point lies
    in (x, x + B] and B doubles.  No point can be skipped.  The walk ends
    at the greatest point, found like the least by the row enumeration.
    Each step reads a + b*sqrt(d) as the integer a*2**K + b*floor(sqrt(d)*2**K),
    which is linear and within |b| of the true value times 2**K, so a
    reading farther than that bound from both window edges decides and an
    exact integer sign test decides the rest.  Doubling B only appends
    larger candidates, so each step is recorded as a candidate's index,
    and the gap word is read off those indices.
    """
    R = Fraction(radius)
    if R <= 0:
        raise ValueError("radius must be positive")
    d = lattice.d
    if window.lo.d != d:
        raise ValueError("window and lattice use different fields")
    lo, hi = window.lo, window.hi
    width = hi - lo
    if expected_count(lattice, window, R) > MAX_PATCH_POINTS:
        raise ValueError(
            f"radius R = {R} expects more than {MAX_PATCH_POINTS} points "
            f"(2R|W|/|omega - omega*|), the patch cap MAX_PATCH_POINTS"
        )
    exact = lattice.point

    def extreme(pick, x_lo, x_hi):
        rows = _row_points(lattice, lo, hi, max(x_lo, -R), min(x_hi, R))
        return pick(rows, key=lambda mn: exact(*mn)) if rows else None

    B = Fraction(1)
    first = extreme(min, -R, -R + B)
    while first is None and -R + B < R:
        B *= 2
        first = extreme(min, -R, -R + B)
    if first is None:
        return ModelSetPatch(lattice, window, R, (), (), ())
    last = extreme(max, R - B, R)
    while last is None:
        B *= 2
        last = extreme(max, R - B, R)

    # Over a common denominator S, m + n*omega lies in the patch's window
    # iff la + lb*sqrt(d) <= (S*m + n*sp) + n*sq*sqrt(d) <= ha + hb*sqrt(d).
    omega_star = lattice.omega_star()
    parts = (omega_star.p, omega_star.q, lo.p, lo.q, hi.p, hi.q)
    scale = math.lcm(*(f.denominator for f in parts))
    sp, sq, la, lb, ha, hb = (int(f * scale) for f in parts)

    def fits(m, n):
        a, b = scale * m + n * sp, n * sq
        return _floor_scaled(a - la, b - lb, 1, d) >= 0 and _floor_scaled(ha - a, hb - b, 1, d) >= 0

    # Every patch point has |n*sq| <= ub_max, so a candidate x + g read
    # against an edge has |b| <= ub_max + |gn*sq| + max(|lb|, |hb|).
    ub_max = _coordinate_bounds(lattice, window, R)[1] * abs(sq)
    edge = max(abs(lb), abs(hb))
    K = max(ub_max, edge).bit_length() + 24
    root = math.isqrt(d << 2 * K)
    per_m, per_n = scale << K, (sp << K) + sq * root
    low, high = (la << K) + lb * root, (ha << K) + hb * root

    def candidates():
        gaps = _row_points(lattice, -width, width, Fraction(0), B)
        gaps.remove((0, 0))
        gaps.sort(key=lambda mn: exact(*mn))
        band = ub_max + max((abs(gn) for _, gn in gaps), default=0) * abs(sq) + edge + 1
        out = []
        for i, (gm, gn) in enumerate(gaps):
            g = gm * per_m + gn * per_n
            out.append((i, gm, gn, g, low + band - g, high - band - g, low - band - g, high + band - g))
        return out

    cands = candidates()
    (m, n), (end_m, end_n) = first, last
    u = m * per_m + n * per_n
    coords = [first]
    steps = []
    while m != end_m or n != end_n:
        for i, gm, gn, g, inside_lo, inside_hi, outside_lo, outside_hi in cands:
            if inside_lo < u < inside_hi or (
                outside_lo <= u <= outside_hi and fits(m + gm, n + gn)
            ):
                break
        else:
            B *= 2
            cands = candidates()
            continue
        m += gm
        n += gn
        u += g
        coords.append((m, n))
        steps.append(i)
    used = sorted(set(steps))
    rank = dict(zip(used, range(len(used))))
    gap_coords = tuple(cands[i][1:3] for i in used)
    letters = tuple(map(rank.__getitem__, steps))
    return ModelSetPatch(lattice, window, R, tuple(coords), gap_coords, letters)


def inversion_witness(window, lattice):
    """(m, n) of the lattice translation t = m + n*omega with
    -L(W) = L(W) + t for the whole model set L(W), or None when no such t
    exists.

    -L(W) = L(-W) and L(W) + t = L(W + t*), while -W = W - c for the
    centre c = lo + hi.  Two closed intervals that hold the same points of
    the dense star image are equal, so t exists exactly when t* = -c, that is
    when c = m + n*omega~ lies in the star image, and then t has (-m, -n).
    """
    mn = lattice.star_coords(centro_symmetry_center(window))
    return None if mn is None else (-mn[0], -mn[1])


def palindrome_scan(word, top=None):
    """Maximal palindromic factors as (doubled_center, length) pairs.

    A factor occupying positions i..j is centered at (i + j) / 2; centers
    are reported doubled so half-integers stay exact.  Results are sorted
    by length descending, then by center.  ``top`` keeps the first ``top``
    rows: a length histogram finds the top-th length, and only rows at
    least that long are built and sorted.  ``_manacher`` gives the
    textbook scan's radii, copying mirrored ones in bulk.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    d1, d2 = _manacher(word, 0), _manacher(word, 1)
    # Odd row i has center 2i and length 2*d1[i] - 1; even row i has center
    # 2i - 1 and length 2*d2[i], and exists when d2[i] > 0.
    shortest = 1
    if top is not None:
        lengths = Counter({2 * r - 1: count for r, count in Counter(d1).items()})
        lengths.update({2 * r: count for r, count in Counter(d2).items() if r > 0})
        kept = 0
        for shortest in sorted(lengths, reverse=True):
            kept += lengths[shortest]
            if kept >= top:
                break
    r_odd, r_even = (shortest + 2) // 2, max(1, (shortest + 1) // 2)
    out = [(2 * i, 2 * r - 1) for i, r in enumerate(d1) if r >= r_odd]
    out += [(2 * i - 1, 2 * r) for i, r in enumerate(d2) if r >= r_even]
    out.sort(key=lambda t: (-t[1], t[0]))
    return out[:top]

