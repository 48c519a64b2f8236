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
which the gap and palindrome readings work on.  The walk jumps by return
words of the window's interval exchange.  Floats are renderings only;
the CLI makes them from lattice coordinates (m, n).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce, total_ordering

from .words import _manacher

OMEGA_SQRT = "sqrt"
OMEGA_GOLDEN = "golden"


# _is_squarefree trial-divides up to sqrt(d): about 33000 steps at this bound.
MAX_D = 2**32

# palindrome_scan ranks each parity's radii in blocks of this many by their maxima.
_ROW_BLOCK = 64


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

    ``first`` is the least point's exact (m, n), or None for an empty
    patch.  ``gap_coords`` holds the steps the patch takes, in increasing
    order: those of the window's interval exchange, at most three by the
    three-distance theorem.  ``letters[i]`` is the index in ``gap_coords``
    of the step from point i to point i + 1, as ``bytes``.
    ``iter_coords()`` yields every point's (m, n) in increasing physical
    position from those, and ``coords`` holds them all, built on first
    use; the CLI reads only ``iter_coords()``.  A patch is a finite
    sample: the inversion verdict reads the window alone, and the
    palindrome and gap readings hold for this patch only.
    """

    lattice: QuadField
    window: Window
    radius: Fraction
    first: tuple | None
    gap_coords: tuple
    letters: bytes

    def __len__(self):
        return 0 if self.first is None else len(self.letters) + 1

    def iter_coords(self):
        """Every point's (m, n) in increasing physical position, one at a
        time: ``first`` and the running sums of the gaps ``letters`` name."""
        if self.first is None:
            return iter(())
        m, n = self.first
        gm = [g[0] for g in self.gap_coords]
        gn = [g[1] for g in self.gap_coords]
        ms = itertools.accumulate(map(gm.__getitem__, self.letters), initial=m)
        ns = itertools.accumulate(map(gn.__getitem__, self.letters), initial=n)
        return zip(ms, ns)

    @cached_property
    def coords(self):
        # A list first: tuple() of an iterator of unknown length grows by
        # repeated resizing, about a third slower here.
        return tuple(list(self.iter_coords()))


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
    spread = omega - lattice.omega_star()
    n_lo = ((x_lo - hi) / spread).ceil()
    n_hi = ((x_hi - lo) / spread).floor()
    parts = (x_lo, x_hi, omega.p, omega.q, lo.p, lo.q, hi.p, hi.q)
    scale = math.lcm(*(f.denominator for f in parts))
    # Over the scale, omega = wp + wq*sqrt(d) and omega~ = wp - wq*sqrt(d).
    xlo_i, xhi_i, wp_i, wq_i, lop_i, loq_i, hip_i, hiq_i = (int(f * scale) for f in parts)
    out = []
    for n in range(n_lo, n_hi + 1):
        m_start = max(
            -_floor_scaled(n * wp_i - xlo_i, n * wq_i, scale, d),
            -_floor_scaled(n * wp_i - lop_i, -n * wq_i - loq_i, scale, d),
        )
        m_end = min(
            _floor_scaled(xhi_i - n * wp_i, -n * wq_i, scale, d),
            _floor_scaled(hip_i - n * wp_i, hiq_i + n * wq_i, scale, d),
        )
        out.extend((m, n) for m in range(m_start, m_end + 1))
    return out


# A patch of this many points keeps only its gap word, one byte a point:
# generate, palindromes and symmetry peak near 19, 20 and 19 MiB RSS on
# CPython 3.11; the largest patch the tests build has about 120000 points.
MAX_PATCH_POINTS = 250_000


def expected_count(lattice, window, radius):
    """2R|W| / |omega - omega*|, exactly: |omega - omega*| is the lattice's
    covolume, so the model set has density |W| / |omega - omega*| and the
    patch within radius R about 2R times that many points."""
    return (window.hi - window.lo) * (2 * Fraction(radius)) / (lattice.omega() - lattice.omega_star())


def _gaps(lattice, window, bound):
    """The steps of the window's interval exchange in increasing order, and
    their domains once the steps' claims cover the window.

    A step x -> x + g needs x* + g* in W, so |g*| <= |W|, and g claims
    W n (W - g*): [lo, hi - g*] if g* > 0, else [lo - g*, hi].  The g in
    (0, B] are scanned in increasing order, and g is kept when its claim
    reaches past the earlier claims from its own end, before the claims of
    the two ends meet; any other g claims only what a kept step claimed
    first, so x's step is the first kept step whose claim holds x*.  B
    starts at twice the mean gap |omega - omega*| / |W| and doubles until
    the claims meet or B reaches ``bound``.  A scan reads (min(B, bound) +
    2|W|) / |omega - omega*| rows, refused with ValueError past
    MAX_PATCH_POINTS.  A kept step's domain is its claim less the earlier
    claims of both ends; ``domains`` lists the nonempty ones from lo to hi
    as (step index, length), the lo-end steps as kept and then the hi-end
    steps reversed, or is None when the claims do not meet.
    """
    width = window.hi - window.lo
    omega_star = lattice.omega_star()
    spread = lattice.omega() - omega_star
    B = (2 * spread / width).ceil()
    # The claims from lo cover [lo, hi - reach[0]], those from hi [lo + reach[1], hi];
    # a claim of one end alone (s = |W|) holds an x* only in a window that is not generic.
    nongeneric = bool(check_generic(window, lattice))
    while True:
        span = min(B, bound)
        if MAX_PATCH_POINTS * spread < span + 2 * width:
            raise ValueError(
                f"the gap scan over (0, {span}] reads more than MAX_PATCH_POINTS = "
                f"{MAX_PATCH_POINTS} rows: the window is too narrow for this radius, or too wide"
            )
        cands = _row_points(lattice, -width, width, Fraction(0), span)
        cands.remove((0, 0))
        cands.sort(key=lambda mn: lattice.point(*mn))
        steps, reach, domains = [], [width, width], ([], [])
        for m, n in cands:
            s = omega_star * n + m
            end = s.sign() < 0
            s = -s if end else s
            if s < reach[end] or s == reach[end] == width and nongeneric:
                domains[end].append((len(steps), min(reach[end] - s, reach[0] + reach[1] - width)))
                reach[end] = s
                steps.append((m, n))
                if reach[0] + reach[1] <= width:
                    return steps, [(i, ln) for i, ln in domains[0] + domains[1][::-1] if ln != 0]
        if bound <= span:
            return steps, None
        B *= 2


def _rauzy(letters, d, short):
    """Levels of Rauzy-Veech induction (Viana, *Rev. Mat. Complut.* 19,
    2006) on an exchange whose bottom order reverses the top, one per run
    of steps with one winner, while ``short`` holds for every word's move.
    ``letters`` gives each domain from lo as [(a, b), word, (dm, dn)]: its
    length (a + b*sqrt(d)) / S and the steps that return its points; a
    level lists (a, b, word, (dm, dn)), (a, b) its right end less lo.  A
    step compares the last top and bottom domains: the loser's word and
    move absorb the winner's, the winner's length drops by the loser's,
    and the loser moves to just after the winner in its own row.  A winner
    left with length 0 (a connection) drops out.
    """
    top = list(range(len(letters)))
    bot = top[::-1]

    def plus(u, v, c=1):
        return (u[0] + c * v[0], u[1] + c * v[1])

    def exceeds(u, v):
        return u != v and _floor_scaled(*plus(u, v, -1), 1, d) >= 0

    while True:
        cuts = itertools.accumulate((letters[i][0] for i in top), plus)
        yield [(*cut, *letters[i][1:]) for cut, i in zip(cuts, top)]
        ahead = exceeds(letters[bot[-1]][0], letters[top[-1]][0])  # the bottom domain wins
        winner, row = (bot[-1], top) if ahead else (top[-1], bot)
        # A cycle in which each letter after the winner in the row loses once
        # restores the row: ceil(w / t) - 1 cycles go at once, w / t = w * t~ / (t * t~).
        losers = row[row.index(winner) + 1 :]
        (a, b), (p, q) = letters[winner][0], reduce(plus, (letters[i][0] for i in losers))
        norm = p * p - d * q * q
        s = 1 if norm > 0 else -1
        cycles = -_floor_scaled(s * (b * q * d - a * p), s * (a * q - b * p), s * norm, d) - 1
        letters[winner][0], copies = plus((a, b), (p, q), -cycles), Counter({i: cycles for i in losers})
        while not exceeds(letters[row[-1]][0], letters[winner][0]):
            letters[winner][0] = plus(letters[winner][0], letters[row[-1]][0], -1)
            copies[row[-1]] += 1
            row.insert(row.index(winner) + 1, row.pop())
        size, other, moved = letters[winner]
        for loser, c in copies.items():
            _, word, move = letters[loser]
            if not short(move := plus(move, moved, c)):
                return
            letters[loser][1:] = (other * c + word if ahead else word + other * c), move
        if size == (0, 0):
            top.remove(winner)
            bot.remove(winner)


def enumerate_patch(lattice, window, radius):
    """All lattice points z with |z| <= radius whose star image lies in the window.

    A radius whose expected point count 2R|W| / |omega - omega*| exceeds
    ``MAX_PATCH_POINTS`` is refused with ValueError, as is a window whose
    gap scan ``_gaps`` reads more rows than that.

    The walk starts at the least point, in a strip at -R as wide as the
    longest step (all of [-R, R] if the claims do not cover W).  From y =
    x* it climbs ``_rauzy``'s levels while y lies in the next level's
    interval, and takes y's return word there in one jump if it ends in a
    row at most n_safe = floor((R - hi) / (omega - omega*)), so within R;
    else it descends, and climbs no more.  The half-open domains and the
    closed W differ only at an edge point e (e* = lo or hi) and at e - g
    for steps g, so no jump from x <= e ends past e less the longest step;
    past e the walk climbs again.  At level 0 it takes the first step g
    with x* + g* in W, tested against R above n_safe, until one passes R.
    """
    R = Fraction(radius)
    if R <= 0:
        raise ValueError("radius must be positive")
    d = lattice.d
    if window.lo.d != d:
        raise ValueError("window and lattice use different fields")
    lo, hi = window.lo, window.hi
    if expected_count(lattice, window, R) > MAX_PATCH_POINTS:
        raise ValueError(
            f"radius R = {R} expects more than {MAX_PATCH_POINTS} points "
            f"(2R|W|/|omega - omega*|), the patch cap MAX_PATCH_POINTS"
        )
    gaps, domains = _gaps(lattice, window, 2 * R)
    strip = lattice.point(*gaps[-1]).ceil() if domains else 2 * R
    rows = _row_points(lattice, lo, hi, -R, min(-R + strip, R))
    if not rows:
        return ModelSetPatch(lattice, window, R, None, (), b"")
    first = min(rows, key=lambda mn: lattice.point(*mn))

    # Over a common denominator S, m + n*omega lies in the patch's window
    # iff la + lb*sqrt(d) <= (S*m + n*sp) + n*sq*sqrt(d) <= ha + hb*sqrt(d).
    omega_star = lattice.omega_star()
    parts = (omega_star.p, omega_star.q, lo.p, lo.q, hi.p, hi.q)
    scale = math.lcm(*(f.denominator for f in parts))
    sp, sq, la, lb, ha, hb = (int(f * scale) for f in parts)

    def fits(m, n):
        a, b = scale * m + n * sp, n * sq
        return _floor_scaled(a - la, b - lb, 1, d) >= 0 and _floor_scaled(ha - a, hb - b, 1, d) >= 0

    def below(cut):  # y < lo + cut
        return _floor_scaled(ya - cut[0], yb - cut[1], 1, d) < 0

    # Rows up to n_safe are within R; m + n*omega <= a / rs iff
    # (a - rs*m - n*wp) - n*wq*sqrt(d) >= 0.
    omega = lattice.omega()
    n_safe = ((-hi + R) / (omega - omega_star)).floor()
    rs = math.lcm(R.denominator, omega.p.denominator, omega.q.denominator)
    ra, wp, wq = int(R * rs), int(omega.p * rs), int(omega.q * rs)

    def at_most(m, n, a=0):
        return _floor_scaled(a - rs * m - n * wp, -n * wq, 1, d) >= 0

    levels, fences = [], {}
    if domains:
        exchange = [[(int(ln.p * scale), int(ln.q * scale)), bytes([i]), gaps[i]] for i, ln in domains]
        # No jump from x >= -R that moves x by more than 2R ends within R.
        levels = list(_rauzy(exchange, d, lambda move: at_most(*move, 2 * ra)))
        # Each edge point at or after the first point, and how far a jump may end.
        edges = (lattice.star_coords(e) for e in check_generic(window, lattice))
        ahead = (e for e in edges if not lattice.point(*e) < lattice.point(*first))
        fences = {e: (e[0] - gaps[-1][0], e[1] - gaps[-1][1]) for e in ahead}
    m, n = first
    steps, k, climb = bytearray(), 0, True
    while True:
        ya, yb = scale * m + n * sp - la, n * sq - lb
        while climb and k + 1 < len(levels) and below(levels[k + 1][-1]):
            k += 1
        while k:
            word, (dm, dn) = next((e for e in levels[k][:-1] if below(e)), levels[k][-1])[2:]
            if n + dn <= n_safe and all(at_most(m + dm - p, n + dn - q) for p, q in fences.values()):
                break
            climb, k = False, k - 1
        else:
            for i, (dm, dn) in enumerate(gaps):
                if fits(m + dm, n + dn):
                    break
            else:
                # Claims that cover W leave no x* unclaimed; else x's next point is over 2R on.
                if domains:
                    raise RuntimeError(f"no step of the window's interval exchange fits at {(m, n)}")
                break
            if n + dn > n_safe and not at_most(m + dm, n + dn, ra):
                break
            climb |= fences.pop((m, n), None) is not None
            word = bytes([i])
        steps += word
        m, n = m + dm, n + dn
    used = [i for i in range(len(gaps)) if i in steps]
    letters = bytes(steps.translate(bytes(used.index(i) if i in used else 0 for i in range(256))))
    return ModelSetPatch(lattice, window, R, first, tuple(gaps[i] for i in used), letters)


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
    rows: a row among them is at least as long as the top-th row of its
    parity.  Each parity's radii are cut into blocks of ``_ROW_BLOCK``;
    the top-th largest block maximum is at most the top-th largest radius,
    since that many blocks each hold a radius at least as large, so only
    the blocks whose maximum reaches it are read.  Their radius histogram
    finds the top-th radius, and only rows at least that long are built
    before the parity's radii are dropped.  ``_manacher`` gives the
    textbook scan's radii, copying mirrored ones in bulk.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    out = []
    for even in (0, 1):
        d = _manacher(word, even)
        rows, radii = enumerate(d), d
        starts = range(0, len(d), _ROW_BLOCK)
        if top is not None and 0 < top <= len(starts):
            maxima = [max(d[s : s + _ROW_BLOCK]) for s in starts]
            bound = heapq.nlargest(top, maxima)[-1]
            picked = [s for s, m in zip(starts, maxima) if m >= bound]
            rows = [(i, r) for s in picked for i, r in enumerate(d[s : s + _ROW_BLOCK], s) if r >= bound]
            radii = [r for _, r in rows]
        r_min = 1
        if top is not None:
            counts, kept = Counter(radii), 0
            for r_min in sorted(counts, reverse=True):
                kept += counts[r_min]
                if kept >= top:
                    break
        r_min = max(r_min, 1)
        # Radius r at i is a row of length 2r - 1 centred at 2i when odd,
        # and of length 2r centred at 2i - 1 when even and r > 0.
        out += [(2 * i - even, 2 * r - 1 + even) for i, r in rows if r >= r_min]
        del d, rows, radii
    out.sort(key=lambda t: (-t[1], t[0]))
    return out[:top]
