"""TR with shifted coefficients, computed as the kernel of gr(phi - can).

The oracle route: build the fixed-point and Tate E-infinity pages for all
levels that can reach the window, present the canonical and Frobenius maps
on the v1-adic associated graded by their name-level formulas, and take the
kernel of phi - can with exact linear algebra.

A class is a tuple of integers (level, t, mu, lam, u), the monomial
se(l p^level) t^t mu^mu l1^lam u^u; it is the one class form from the
pages (EInfResult.alive and life take it, with a height) through the
kernel, the chain solver and the family check.  A base is a pure class,
t = 0 or mu = 0.  Every survivor the oracle reads is v1^s times a base
whose alive heights form one interval from the bottom of its ladder
(EInfResult.orbits raises otherwise), so source and target are direct
sums of interval modules over F_p[v1].  The maps act on the base alone:

    can: (level, t, 0, ...)  ->  (level, t, 0, ...)                  t-type
    phi: (level, 0, mu, ...) ->  (level + 1, p^level l (p-1) - p mu, 0, ...)

and the height s only decides whether the image is still alive.  Both act
on names (can_image, phi_image), so no degree-based name resolution is
needed.  Units are pinned
to +1, which changes no dimension or torsion order (the map's bipartite
graph is a disjoint union of paths).

So the kernel is reduced once per v1-orbit class (base stem, line), not
once per (stem, line, s) piece: the piece at height s is the class's base
matrix cut to the rows and columns alive at s, as in Zomorodian and
Carlsson, "Computing Persistent Homology" (Discrete Comput. Geom. 33,
2005).  A base matrix reads each image off its key's own Tate rows, which
carry their alive heights, and asks the page only where a row stops below
its column.  Most base matrices have at most one entry per row and per
column; such a matrix is its own echelon form, so its rank lives and
kernel are read off its entries, and only the others are eliminated.  A
kernel generator's torsion is the largest alive top among its columns,
refused where that top is the page's modeled boundary.

The kernel's own v1-structure is re-derived, not assumed; every
oracle run checks that gr(phi - can) is onto the Tate piece at every
(stem, line, s) of the window (the rank there is the number of Tate
classes alive) and that no kernel bar is born above its orbit's bottom
(v1 is onto the kernel).  Together they collapse the abutment filtration
to the v1-adic one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

from . import fplinalg
from .closedforms import TRUNC_INF, tr_closed_decomposition
from .errors import InputError, InvariantError, VerificationFailure
from .graded import (
    Bidegree,
    CyclicDecomposition,
    Generator,
    Monomial,
    PrimeContext,
    differences,
    geo,
    orbit_dims,
    orbit_heights,
    torsion_multiset,
)
from .nygaard import SSPage, Variant, run_to_einf

MODES = ("oracle", "closed", "both")  # the routes: TR oracle, closed forms, or both compared


class PageSet:
    """Fixed-point and Tate E-infinity pages for levels 0..top.

    window is the stem window the caller reads, tors_bound the largest
    torsion it probes there; each page pads window by its v1 cutoff,
    tors_bound + 4, and a longer life raises at the modeled boundary.
    Every page's size guard runs before the first page is built, so a
    window too large for the top page fails before any work.
    """

    def __init__(self, ctx: PrimeContext, ell: int, top: int, window, tors_bound: int):
        v1_cutoff = tors_bound + 4
        self.ctx = ctx
        self.ell = ell
        self.top = top
        self.window = window
        plan = [(i, v) for i in range(top + 1) for v in (Variant.HFP, Variant.TATE) if i >= 1 or v is Variant.HFP]
        for i, variant in plan:
            SSPage.check_size(ctx, i, ell, variant, window, v1_cutoff)
        self.hfp = {}
        self.tate = {}
        for i, variant in plan:
            pages = self.hfp if variant is Variant.HFP else self.tate
            pages[i] = run_to_einf(SSPage(ctx, i, ell, variant, window, v1_cutoff))

    def monomial(self, cls: tuple, h: int = 0) -> Monomial:
        """v1^h times the class cls = (level, t, mu, lam, u), as a monomial,
        for labels and messages."""
        level, t, mu, lam, u = cls
        return Monomial(level, self.ell, t + h, mu + h, lam, u)


def can_image(cls: tuple) -> tuple | None:
    """The name of the canonical image of the class cls on the Tate page of
    its level, or None where can vanishes on names."""
    level, _t, mu, _lam, _u = cls
    if level < 1:
        return None  # level 0 has no Tate target in the limit diagram
    if mu:
        return None  # v1^h mu^j with j > 0 dies; t^0 mu^0 is t-type too
    return cls


def phi_image(cls: tuple, pages: PageSet) -> tuple | None:
    """The name of the Frobenius image of the class cls on the next level's
    Tate page, or None where phi vanishes on names."""
    level, t, mu, lam, u = cls
    if t:
        return None  # v1^h t^i with i > 0 dies
    p = pages.ctx.p
    if level + 1 > pages.top:
        raise InputError(f"phi target level {level + 1} not modeled")
    return (level + 1, p**level * pages.ell * (p - 1) - p * mu, 0, lam, u)


def gr_can(cls: tuple, h: int, pages: PageSet) -> tuple | None:
    """Associated-graded canonical map on v1^h times the class cls; its
    image class on the Tate page of the same level, or None when that
    image vanishes or v1^h times it is dead."""
    img = can_image(cls)
    return img if img is not None and pages.tate[img[0]].alive(img, h) else None


def gr_phi(cls: tuple, h: int, pages: PageSet) -> tuple | None:
    """Associated-graded Frobenius on v1^h times the class cls, into the
    next level's Tate page; its image class, or None when that image
    vanishes or v1^h times it is dead."""
    img = phi_image(cls, pages)
    return img if img is not None and pages.tate[img[0]].alive(img, h) else None


def complete_to_kernel(leading: tuple, pages: PageSet) -> list:
    """Extend a leading class (level, t, mu, lam, u), a base, to a full
    kernel chain of classes.

    Walks phi(component_i) = can(component_{i+1}) upward through the
    levels; fails loudly when the forced next component is not alive on its
    fixed-point page.  The chain ends where the Frobenius image vanishes or
    at the top modeled level.  Both maps have unit coefficient 1, so the
    components need no coefficients.
    """
    level, t, mu, _lam, _u = leading
    if t > 0 and mu > 0:
        raise InputError(f"leading term {pages.monomial(leading)} is not pure (divisible by v1)")
    if level > pages.top:
        raise InputError("leading term above the top modeled level")
    if gr_can(leading, 0, pages) is not None:
        raise InvariantError(f"leading term {pages.monomial(leading)} at level {level} is not in ker(can)")
    comps = [leading]
    cls = leading
    while cls[0] < pages.top:
        cls = gr_phi(cls, 0, pages)
        if cls is None:
            break
        # can is the identity on cls, a live t-type Tate class
        if not pages.hfp[cls[0]].alive(cls):
            raise InvariantError(f"chain from {pages.monomial(leading)} needs dead class {pages.monomial(cls)} "
                                 f"at level {cls[0]}")
        comps.append(cls)
    return comps


def probe_element_torsion(pages: PageSet, comps) -> int:
    """Torsion of a kernel chain of classes (level, t, mu, lam, u).

    v1^r of the chain is zero exactly when every component has died on its
    own page (components are distinct basis elements, so nothing can
    cancel), so the torsion is the largest component life.
    """
    return max((pages.hfp[cls[0]].life(cls) for cls in comps), default=0)


@dataclass
class SurjectivityReport:
    failures: list = field(default_factory=list)
    pieces_checked: int = 0
    margins: dict = field(default_factory=dict)  # (stem, line, s) -> src_dim - tgt_dim

    @property
    def all_surjective(self) -> bool:
        return not self.failures


@dataclass
class TrComparison:
    dim_mismatches: list
    torsion_mismatches: list

    @property
    def ok(self) -> bool:
        return not self.dim_mismatches and not self.torsion_mismatches


@dataclass
class TrResult:
    multiset: Counter  # (stem, line, torsion) -> multiplicity: the oracle's if it ran, else the closed tally
    decomposition: CyclicDecomposition | None = None  # the oracle's labelled generators, if it ran
    comparison: TrComparison | None = None
    surjectivity: SurjectivityReport | None = None


def _window_torsion_bound(p: int, ell: int, hi: int, m_max: int) -> int:
    """Largest torsion any untruncated generator in stems <= hi can carry.

    Chain generators trade stem for torsion one-for-two (a class v1^r g has
    stem 2*l*p^(n+1) - 2*i' + r*q with torsion geo + p^(n+1) - i'), so the
    window caps the order; the level-(n+1) delta chains at twist 1 carry an
    extra p^(n+1).
    """
    if m_max < 0:
        return 1
    best = geo(p, 0, m_max)
    for n in range(m_max + 1):
        slack = (hi - 2 * ell * p ** (n + 1)) // 2 + p ** (n + 1)
        slack = max(0, min(p ** (n + 1), slack))
        best = max(best, geo(p, 0, n) + slack)
        if ell == 1 and (n + 1) % p == 0 and 2 * p ** (n + 1) <= hi:
            best = max(best, geo(p, 0, n + 1) + p ** (n + 1))
    return best + 2


def _count_above(ends: list, s: int) -> int:
    """How many of the sorted heights in ends exceed s."""
    return len(ends) - bisect_right(ends, s)


def _partial_permutation(entries: dict, row_stops: list, col_stops: list) -> tuple | None:
    """(lives, kernel) of a matrix {(row, column): residue} with at most one
    entry in each row and each column, or None for any other matrix.

    Each entry is one unit of rank, alive below min(row stop, column stop),
    and the kernel is spanned by the unit vectors of the columns with no
    entry, as fplinalg.kernel_basis lists it.
    """
    used = {j for _i, j in entries}
    if len(used) != len(entries) or len({i for i, _j in entries}) != len(entries):
        return None
    lives = sorted(r if r < c else c for r, c in ((row_stops[i], col_stops[j]) for i, j in entries))
    return lives, [{j: 1} for j in range(len(col_stops)) if j not in used]


def _echelon_lives(p: int, entries: dict, row_stops: list, col_stops: list) -> list:
    """The sorted rank lives of a matrix {(row, column): residue} whose
    columns are ordered by stop: rows enter one echelon form longest-lived
    first, on the columns longest-lived first.  On any leading set of
    columns such a form has the rank of its pivots there, so a row that
    adds to the rank lives as long as it and its pivot column both do."""
    n = len(col_stops)
    by_row: dict = {}
    for (i, j), v in entries.items():
        by_row.setdefault(i, {})[n - 1 - j] = v
    lives = []
    if by_row:
        span = fplinalg.VectorSpan(p, n)
        for i in sorted(by_row, key=lambda i: -row_stops[i]):
            red = span.reduce(by_row[i])
            if red:
                span.add(red)
                lives.append(min(row_stops[i], col_stops[n - 1 - min(red)]))
    return sorted(lives)


class TrOracle:
    """Brute-force gr TR^[m](Z_p; Sigma^{2l} Z_p)/p on a stem window.

    Classes are grouped by orbit key (base stem, line).  At each key the
    columns are the fixed-point classes, ordered by life (the top of their
    alive interval), and the rows the Tate classes; each carries the range
    of its alive heights in the window, all starting at the key's bottom
    height.
    """

    def __init__(self, ctx: PrimeContext, ell: int, trunc, window):
        p = ctx.p
        if ell < 1 or ell % p == 0:
            raise InputError("twist must be positive and prime to p")
        self.ctx = ctx
        self.ell = ell
        lo, hi = window
        # Generators and both surjectivity checks start at stem min(lo, 0),
        # as the pages do: v1-translates of generators below lo reach the
        # window, so lo only cuts the printed table.  An empty window stays
        # empty.
        self.window = (min(lo, 0) if lo <= hi else lo, hi)
        if trunc == TRUNC_INF:
            m_max = -1
            while 2 * ell * p ** (m_max + 1) <= hi:
                m_max += 1
            # levels above m_max contribute nothing in the window; modeling
            # two more levels makes every surviving family's torsion exact.
            self.top = max(m_max + 2, 0)
            tors_bound = _window_torsion_bound(p, ell, hi, m_max)
        else:
            if trunc < 0:
                raise InputError("truncation level must be >= 0")
            self.top = trunc
            tors_bound = geo(p, 0, trunc) + 2
        # the pages read the window and one stem above it, whose kills reach it
        self.pages = PageSet(ctx, ell, self.top, (min(lo, 0), hi + 1), tors_bound)
        self._cols: dict = {}  # orbit key -> [(class, heights, top)], by (top, class)
        self._rows: dict = {}  # orbit key -> [(class, heights, top)], by class
        self._bases: dict = {}  # orbit key -> (matrix entries, sorted rank lives)
        self._kernels: dict = {}
        self._assemble()

    # -- basis assembly ---------------------------------------------------

    def _assemble(self):
        # orbits yields one alive interval per ladder, from the bottom of its
        # modeled heights, or raises; a ladder modeled from above height 0
        # has its bottom stem below lo_pad, more than q below the window, so
        # every orbit of a key starts at the window's bottom height there.
        for pages, side in ((self.pages.hfp, self._cols), (self.pages.tate, self._rows)):
            for level, res in pages.items():
                for stem0, (t, mu, lam, u), heights, top in res.orbits(self.pages.window):
                    side.setdefault((stem0, lam - u), []).append(((level, t, mu, lam, u), heights, top))
        for cols in self._cols.values():
            cols.sort(key=lambda c: (c[2], c[0]))
        for rows in self._rows.values():
            rows.sort(key=lambda r: r[0])

    def _base(self, key) -> tuple:
        """(entries, lives, kernel) of the base matrix of phi - can at an
        orbit key: {(row, column): residue}; the sorted heights below which
        each unit of rank lives, so the piece at height s has rank
        #{life > s}; and, for a matrix with at most one entry per row and
        per column, its kernel basis (else None, and kernel reduces it).

        Every can/phi image of a column must be a Tate row, alive as long
        as on its page.  The images are named by can_image and phi_image
        and looked up among the key's rows, which start at the columns'
        bottom height; the Tate page is asked only whether an image is
        still alive where its row stops below the column, a missing row
        stopping at the bottom.
        """
        if key in self._bases:
            return self._bases[key]
        p, pages, top = self.ctx.p, self.pages, self.top
        cols = self._cols.get(key, [])
        rows = self._rows.get(key, [])
        index = {cls: i for i, (cls, _hs, _top) in enumerate(rows)}
        entries: dict = {}
        for j, (cls, heights, _top) in enumerate(cols):
            for img, sign, what in ((can_image(cls), -1, "can"),
                                    (phi_image(cls, pages) if cls[0] < top else None, 1, "phi")):
                if img is None:
                    continue
                i = index.get(img)
                stop = heights.start if i is None else rows[i][1].stop  # no row stops at the bottom
                if stop < heights.stop and pages.tate[img[0]].alive(img, stop):
                    raise InvariantError(f"{what} image {pages.monomial(img)} missing from Tate basis")
                if i is not None:
                    entries[(i, j)] = (entries.get((i, j), 0) + sign) % p
        entries = {k: v for k, v in entries.items() if v}
        row_stops = [hs.stop for _c, hs, _t in rows]
        col_stops = [hs.stop for _c, hs, _t in cols]
        found = _partial_permutation(entries, row_stops, col_stops)
        if found is None:
            found = _echelon_lives(p, entries, row_stops, col_stops), None
        self._bases[key] = (entries, *found)
        return self._bases[key]

    def matrix(self, key) -> fplinalg.FpMatrix:
        """phi - can on the base classes of an orbit key (base stem, line).
        The piece at height s is this matrix cut to the rows and columns
        alive at s."""
        rows, cols = self._rows.get(key, ()), self._cols.get(key, ())
        return fplinalg.FpMatrix(self.ctx.p, len(rows), len(cols), self._base(key)[0])

    def kernel(self, key):
        """Kernel basis of matrix(key), one vector per free column; its
        free column is its largest index, and the latest to die.  A matrix
        with at most one entry per row and per column has it from _base;
        any other is reduced by fplinalg.kernel_basis."""
        if key not in self._kernels:
            found = self._base(key)[2]
            self._kernels[key] = fplinalg.kernel_basis(self.matrix(key)) if found is None else found
        return self._kernels[key]

    # -- structure extraction ----------------------------------------------

    def generators(self) -> list:
        """Kernel generators: the height-0 kernel basis of each orbit key in
        the window, each with the torsion of its chain.  v1^r of a chain is
        zero exactly when every component has died (probe_element_torsion),
        and every column of a key in the window is alive from height 0, so
        the torsion is the largest top among the vector's columns; a top at
        the modeled boundary raises, as EInfResult.life does.  The columns
        are ordered by life, so that is the top of the free column, and no
        basis of the kernel has smaller torsions."""
        out = []
        lo, hi = self.window
        hfp = self.pages.hfp
        for key in sorted(k for k in self._cols if lo <= k[0] <= hi):
            cols = self._cols[key]
            for vec in self.kernel(key):
                r = max(hfp[cls[0]].bounded_top(cls, key[0], top) for cls, _hs, top in (cols[j] for j in vec))
                free = cols[max(vec)][0]
                label = f"ker:L{free[0]}:{self.pages.monomial(free)}@{key[0]},{key[1]}"
                out.append((Generator(label, Bidegree(*key), r), key, vec))
        return out

    def decomposition(self) -> CyclicDecomposition:
        gens = [g for g, _k, _v in self.generators()]
        return CyclicDecomposition(gens)

    # -- checks -------------------------------------------------------------

    def check_v1_surjectivity(self) -> list:
        """[((stem, line, s), kernel dim, carried dim)] over the pieces of
        the window where a kernel bar is born above its orbit's bottom.

        v1 carries the height-0 generators up while their free columns
        live; the rest of the kernel at s, #{columns alive} - rank, was
        born above height 0 (all of it where the orbits reach the window
        from below).
        """
        failures = []
        q = self.ctx.q
        for key, cols in self._cols.items():
            ends = [hs.stop for _c, hs, _t in cols]
            heights = orbit_heights(q, key[0], ends[-1], self.window)
            if not heights:
                continue
            carried = []
            if heights.start == 0:
                carried = sorted(ends[max(vec)] for vec in self.kernel(key))
                heights = heights[1:]
            lives = self._base(key)[1]
            for s in heights:
                kdim = _count_above(ends, s) - _count_above(lives, s)
                up = _count_above(carried, s)
                if kdim > up:
                    failures.append(((key[0] + s * q, key[1], s), kdim, up))
        return sorted(failures)

    def surjectivity_report(self) -> SurjectivityReport:
        """gr(phi - can) onto the Tate piece at every (stem, line, s) of the
        window: the rank there is the number of Tate rows alive."""
        rep = SurjectivityReport()
        q = self.ctx.q
        for key, rows in self._rows.items():
            ends = sorted(hs.stop for _c, hs, _t in rows)
            heights = orbit_heights(q, key[0], ends[-1], self.window)
            if not heights:
                continue
            col_ends = [hs.stop for _c, hs, _t in self._cols.get(key, ())]
            lives = self._base(key)[1]
            for s in heights:
                piece = (key[0] + s * q, key[1], s)
                n_rows = _count_above(ends, s)
                rep.pieces_checked += 1
                rep.margins[piece] = _count_above(col_ends, s) - n_rows
                rank = _count_above(lives, s)
                if rank < n_rows:
                    rep.failures.append((piece, n_rows, rank))
        rep.failures.sort()
        return rep


def tr_gr_module(
    ctx: PrimeContext,
    ell: int,
    trunc=TRUNC_INF,
    window=(0, 200),
    mode: str = "both",
    with_surjectivity: bool = False,
) -> TrResult:
    """gr TR^[trunc](Z_p; Sigma^(2 ell) Z_p)/p as a (stem, line, torsion) multiset.

    mode "oracle": brute-force kernel; "closed": the family tally
    (tr_closed_decomposition) over stems up to the window top; "both": run
    the two independently, raise VerificationFailure at the first (stem,
    line) dimension, else in-window (stem, line, torsion) multiplicity,
    where they differ, and attach the (empty) comparison.  Every oracle run
    raises InvariantError unless gr(phi - can) is onto every Tate piece of
    the window and v1 is onto the kernel, and on a generator whose torsion
    is only a lower bound; with_surjectivity attaches the first check's
    report to the result.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode}")
    closed = None
    if mode in ("closed", "both"):
        closed = tr_closed_decomposition(ctx, ell, trunc, window[1])
    if mode == "closed":
        return TrResult(closed)
    oracle = TrOracle(ctx, ell, trunc, window)
    dec = oracle.decomposition()
    surj = oracle.surjectivity_report()
    if surj.failures:
        raise InvariantError(f"gr(phi - can) not onto the Tate piece at {surj.failures[0]}")
    vfail = oracle.check_v1_surjectivity()
    if vfail:
        raise InvariantError(f"v1 not surjective on the kernel at {vfail[:3]}")
    result = TrResult(torsion_multiset(dec, f"l{ell}:"), dec, surjectivity=surj if with_surjectivity else None)
    if mode == "both":
        lo, hi = window
        routes = (result.multiset, closed)
        comp = TrComparison(
            differences(*(orbit_dims(ctx.q, window, route.items()).entries for route in routes)),
            differences(*({key: m for key, m in route.items() if lo <= key[0] <= hi} for route in routes)),
        )
        if not comp.ok:
            first = (comp.dim_mismatches or comp.torsion_mismatches)[0]
            raise VerificationFailure(f"twist l={ell}: oracle and closed form disagree at {first}")
        result.comparison = comp
    return result
