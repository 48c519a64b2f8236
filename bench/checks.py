"""Output checks: each reads one operation's output back and compares it
with the oracle, or with a property the method must have.

Every check returns a list of problems; an empty list means the output
is correct.  The oracle results are computed once per run and shared by
all rounds.
"""

from __future__ import annotations

import math
from pathlib import Path

import oracle
from inputs import RS_IMAGES, factor_sets, star_coords

TABLE1 = Path(__file__).resolve().parent / "data" / "rs_table1.tsv"

RS_PAL4 = [1, 3, 5, 7]
RS_PAL2 = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14]

# numpy.linalg.eigvalsh and Sturm bisection at tol 1e-12 agree far inside
# this on operators with entries of size <= 4 and n <= 1000.
EIGEN_BOUND = 1e-9
CLOSED_FORM_BOUND = 1e-10
IDS_GUARD = 1e-9
TRANSFER_RTOL = 1e-9
BOUNDED_NORM = 1e3
EPS = 2.0**-52


def paper_table1():
    """Rows (n, count4, pal4, count2, pal2) of the paper's Table 1."""
    rows = []
    for line in TABLE1.read_text().splitlines()[1:]:
        if line.strip():
            cells = (line.split("\t") + [""] * 5)[:5]
            rows.append((int(cells[0]), int(cells[1]), cells[2], int(cells[3]), cells[4]))
    return rows


def _compare(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class Checker:
    def __init__(self, plan):
        self.plan = plan
        self._factors = {}
        self._modelsets = {}

    # -- oracle caches -------------------------------------------------------

    def factors(self, images, nmax):
        """Oracle factor sets of lengths 1..nmax, computed once per rule at
        the largest length any operation asks for."""
        cached = self._factors.get(images)
        if cached is None or len(cached) < nmax:
            need = max(
                [nmax]
                + [op.info.get("nmax", op.info.get("n", 0)) for op in self.plan.ops
                   if op.info.get("images") == images]
            )
            cached = self._factors[images] = factor_sets(images, need)
        return cached[:nmax]

    def modelset(self, info):
        key = (info["kind"], info["lo"], info["hi"], info["radius"])
        if key not in self._modelsets:
            ms = oracle.ModelSet(*key)
            self._modelsets[key] = (ms, ms.points())
        return self._modelsets[key]

    # -- dispatch ------------------------------------------------------------

    def check(self, op, payload):
        return getattr(self, f"check_{op.check}")(op.info, payload)

    # -- exclusion -----------------------------------------------------------

    def check_exclude(self, info, payload):
        problems = []
        want = oracle.chop_verdict(self.factors(info["images"], info["nmax"]))
        for key, value in want.items():
            _compare(problems, key, payload.get(key), value)
        _compare(problems, "nmax", payload.get("nmax"), info["nmax"])
        return problems

    def check_atlas(self, info, payload):
        problems = []
        want = sorted(self.factors(info["images"], info["n"])[-1])
        got = payload.get("words", [])
        if got != want:
            missing = sorted(set(want) - set(got))[:5]
            extra = sorted(set(got) - set(want))[:5]
            problems.append(f"atlas N={info['n']}: missing {missing}, extra {extra}")
        _compare(problems, "count", payload.get("count"), len(want))
        _compare(problems, "methods_agree", payload.get("methods_agree"), True)
        return problems

    def _rs_sets(self, nmax):
        quaternary = self.factors(RS_IMAGES, nmax)
        binary = [frozenset(w.translate(oracle.PHI) for w in words) for words in quaternary]
        return quaternary, binary

    def check_rs_phi(self, info, payload):
        problems = []
        _, binary = self._rs_sets(info["nmax"])
        want = oracle.chop_verdict(binary)
        for key, value in want.items():
            _compare(problems, key, payload.get(key), value)
        _compare(problems, "projection", payload.get("projection"), "phi")
        _compare(
            problems, "binary palindrome lengths", payload.get("lengths_with_palindromes"),
            [n for n in RS_PAL2 if n <= info["nmax"]],
        )
        return problems

    def check_rs_table(self, info, payload):
        problems = []
        nmax = info["nmax"]
        quaternary, binary = self._rs_sets(nmax)
        pal4, pal2 = oracle.table_statuses(quaternary), oracle.table_statuses(binary)
        want = [
            (n, len(quaternary[n - 1]), pal4[n - 1], len(binary[n - 1]), pal2[n - 1])
            for n in range(1, nmax + 1)
        ]
        got = [
            (r.get("n"), r.get("count4"), r.get("pal4"), r.get("count2"), r.get("pal2"))
            for r in payload.get("rows", [])
        ]
        for g, w in zip(got, want):
            if g != w:
                problems.append(f"rs-table row {w[0]}: got {g}, oracle {w}")
        _compare(problems, "rs-table rows", len(got), nmax)
        for g, paper in zip(got, paper_table1()):
            if g != paper:
                problems.append(f"rs-table row {paper[0]}: got {g}, paper's Table 1 {paper}")
        for row in got:
            if row[0] >= 8 and row[3] != 8 * row[0] - 8:
                problems.append(f"binary complexity at n={row[0]} is {row[3]}, not 8n - 8")
        verdicts = payload.get("exclusion_verdicts", {})
        _compare(
            problems, "quaternary palindrome lengths",
            verdicts.get("quaternary", {}).get("lengths_with_palindromes"),
            [n for n in RS_PAL4 if n <= nmax],
        )
        _compare(
            problems, "binary palindrome lengths",
            verdicts.get("binary", {}).get("lengths_with_palindromes"),
            [n for n in RS_PAL2 if n <= nmax],
        )
        return problems

    # -- model sets ----------------------------------------------------------

    def _modelset_header(self, info, payload, problems):
        if "warning" in payload:
            problems.append(f"generic window reported as not generic: {payload['warning']}")
        _compare(problems, "R", payload.get("R"), str(info["radius"]))

    def check_palindromes(self, info, payload):
        problems = []
        self._modelset_header(info, payload, problems)
        ms, points = self.modelset(info)
        seq = ms.letters(points)
        _compare(problems, "sequence_length", payload.get("sequence_length"), len(seq))
        want = oracle.maximal_palindromes(seq)
        rows = [(r.get("center2"), r.get("length")) for r in payload.get("palindromes", [])]
        for c2, length in rows:
            trouble = oracle.palindrome_problem(seq, c2, length)
            if trouble:
                problems.append(f"palindrome at center2={c2}, length {length}: {trouble}")
                break
        if rows != want[: info["top"]]:
            diff = next((k for k, (g, w) in enumerate(zip(rows, want)) if g != w), min(len(rows), len(want)))
            problems.append(
                f"palindrome rows differ from the oracle's first {info['top']} from row {diff}: "
                f"got {rows[diff:diff + 2]}, oracle {want[diff:diff + 2]}"
            )
        _compare(problems, "max_palindrome_length", payload.get("max_palindrome_length"), want[0][1])
        return problems

    def check_generate(self, info, payload):
        problems = []
        self._modelset_header(info, payload, problems)
        ms, points = self.modelset(info)
        got = [(p.get("m"), p.get("n")) for p in payload.get("points", [])]
        outside = [mn for mn in got if not ms.contains(*mn)]
        if outside:
            problems.append(f"{len(outside)} points violate |x| <= R or x* in W, e.g. {outside[:3]}")
        if any(not ms.less(a, b) for a, b in zip(got, got[1:])):
            problems.append("points do not strictly increase")
        _compare(problems, "count", payload.get("count"), len(points))
        if set(got) != set(points):
            problems.append(
                f"point set differs from the oracle: {len(set(points) - set(got))} missing, "
                f"{len(set(got) - set(points))} extra"
            )
        gaps = ms.gaps(points)
        legend = [(g.get("m"), g.get("n")) for g in payload.get("legend", [])]
        if len(legend) > 3:
            problems.append(f"{len(legend)} distinct gaps; the three-distance theorem allows 3")
        _compare(problems, "gap legend", legend, gaps)
        _compare(problems, "sequence", payload.get("sequence"), ms.letters(points))
        lo, hi = ms.lo, ms.hi
        if info["kind"] == "golden" and hi[0] - lo[0] == 1 and hi[1] == lo[1]:
            if len(legend) != 2 or legend[1] != ms.times_omega(legend[0]):
                problems.append(f"length-1 golden window: gaps {legend} are not in ratio tau")
        return problems

    def check_symmetry(self, info, payload):
        problems = []
        self._modelset_header(info, payload, problems)
        ms, points = self.modelset(info)
        _compare(problems, "count", payload.get("count"), len(points))
        centre = star_coords(info["kind"], info["lo"][0] + info["hi"][0], info["lo"][1] + info["hi"][1])
        if centre is None:
            problems.append("workload bug: the window's centre is not in the star image")
            return problems
        want = (-centre[0], -centre[1])
        witness = payload.get("inversion_witness") or {}
        got = (witness.get("m"), witness.get("n"))
        _compare(problems, "inversion witness (m, n)", got, want)
        negated, shifted = ms.overlap_members(points, want)
        if not negated or negated != shifted:
            problems.append(
                f"-L = L + t fails on the overlap: {len(negated ^ shifted)} points differ"
            )
        return problems

    # -- spectra -------------------------------------------------------------

    @staticmethod
    def _ids_problems(eigs, table):
        n = len(eigs)
        problems = []
        for energy, value in table:
            low = sum(1 for e in eigs if e <= energy - IDS_GUARD)
            high = sum(1 for e in eigs if e <= energy + IDS_GUARD)
            if not (low <= round(value * n) <= high) or abs(value * n - round(value * n)) > 1e-9:
                problems.append(f"IDS at E={energy}: {value} against oracle count {low}/{n}")
                break
        return problems

    def check_spectrum_free(self, info, payload):
        problems = []
        n = info["size"]
        want = sorted(2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
        got = payload.get("eigenvalues", [])
        _compare(problems, "eigenvalue count", len(got), n)
        worst = max((abs(a - b) for a, b in zip(got, want)), default=math.inf)
        if worst > CLOSED_FORM_BOUND:
            problems.append(f"free Laplacian eigenvalues off 2cos(k pi/(n+1)) by {worst:.3g}")
        problems += self._ids_problems(want, payload.get("ids", []))
        return problems

    def check_spectrum(self, info, payload):
        problems = []
        word = oracle.potential_prefix(info["images"], info["size"])
        values = dict(zip("abcd", info["values"]))
        diagonal = [info["coupling"] * values[a] for a in word]
        want = oracle.eigvalsh(diagonal)
        got = payload.get("eigenvalues", [])
        _compare(problems, "eigenvalue count", len(got), info["size"])
        worst = max((abs(a - b) for a, b in zip(got, want)), default=math.inf)
        if worst > EIGEN_BOUND:
            problems.append(f"eigenvalues off numpy.linalg.eigvalsh by {worst:.3g}")
        problems += self._ids_problems(want, payload.get("ids", []))
        return problems

    def check_transfer(self, info, payload):
        problems = []
        potential = self.plan.potentials[info["potential"]]
        (own, own_scale) = oracle.transfer_matrix(
            info["energy"], potential, info["values"], info["coupling"]
        )
        got = payload["matrix"]
        shift = payload["scale_pow2"] - own_scale
        norm = max(abs(x) for row in own for x in row)
        diff = max(
            abs(math.ldexp(g, shift) - o) for grow, orow in zip(got, own) for g, o in zip(grow, orow)
        )
        if not diff <= TRANSFER_RTOL * norm:
            problems.append(f"transfer product differs from the oracle's by {diff / norm:.3g} relative")
        _compare(problems, "factor count", payload["stop"] - payload["start"], len(potential))
        log2_norm = own_scale + math.log2(norm)
        if info["coupling"] == 0.0 or log2_norm <= math.log2(BOUNDED_NORM):
            # Rounding moves det by about eps * |M|^2 per factor.
            bound = 8 * len(potential) * EPS * max(1.0, 2.0 ** (2 * log2_norm))
            (a, b), (c, d) = got
            det_error = abs(math.ldexp(a * d - b * c, 2 * payload["scale_pow2"]) - 1.0)
            for what, value in (("|det - 1|", det_error), ("determinant_error()", payload["determinant_error"])):
                if not value <= bound:
                    problems.append(f"{what} = {value:.3g} exceeds the bound {bound:.3g}")
        return problems


def summarise(checker, plan, rounds, read_output):
    """Problems across a run: every operation's last output is checked,
    and every round must have produced the same bytes.  Returns
    (problems, attempted, failed)."""
    problems = []
    attempted = failed = 0
    digests = {}
    ops = {op.label: op for op in plan.ops}
    for r in rounds:
        for label, _, code, digest in r["ops"]:
            attempted += 1
            if code != 0:
                failed += 1
                continue
            first = digests.setdefault(label, digest)
            if first != digest:
                problems.append(f"{label}: output differs between rounds")
    for label in digests:
        try:
            payload = read_output(label)
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: unreadable output: {exc}")
            continue
        problems += [f"{label}: {p}" for p in checker.check(ops[label], payload)]
    return problems, attempted, failed

