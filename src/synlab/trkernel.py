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
(EInfResult.land_orbits raises otherwise), so source and target are direct
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
its column.  Nearly every base matrix has at most one entry per column;
its rows then have disjoint supports, so its rank lives and kernel are
read off its entries, and only the others are eliminated.  A kernel
generator's torsion is the largest alive top among its columns, that of
its free column, certified by its page (EInfResult._certified) or kept as
a lower bound that torsion_multiset refuses.

The kernel's own v1-structure is re-derived, not assumed; every
oracle run checks that gr(phi - can) is onto the Tate piece at every
(stem, line, s) of the window (the rank there is the number of Tate
classes alive) and that no kernel bar is born above its orbit's bottom
(v1 is onto the kernel).  Together they collapse the abutment filtration
to the v1-adic one.  The generators and both checks come from one walk
over the orbit keys, ascending, which reduces each key's base matrix
once and reads both checks off one sweep up the key's heights; so the
first fault in key order is the one raised.  Most keys have at most one
column and one row; such a key's base is decided by arithmetic on its
one entry, with no matrix, and its heights are swept as any other key's.
The walk keeps one surjectivity margin, the smallest, at the first
piece that reaches it.  A generator's label is held as its free class
and orbit key (KernelLabel) and formatted only where a message reads it.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

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
    torsion it probes there; every page pads window by the one v1 cutoff,
    tors_bound + 4, and certifies no torsion past it (EInfResult._certified).
    Each page is placed once (SSPage.placed), and every page's size guard
    runs there before the first page is built, so a window too large for
    the top page fails before any work; the placed pages are then built
    and run to E-infinity.
    """

    def __init__(self, ctx: PrimeContext, ell: int, top: int, window, tors_bound: int):
        v1_cutoff = tors_bound + 4
        self.ctx = ctx
        self.ell = ell
        self.top = top
        self.window = window
        self.v1_cutoff = v1_cutoff
        placed = [SSPage.placed(ctx, i, ell, variant, window, v1_cutoff)
                  for i in range(top + 1) for variant in (Variant.HFP, Variant.TATE) if i >= 1 or variant is Variant.HFP]
        self.hfp = {}
        self.tate = {}
        for page in placed:
            page._build()
            (self.hfp if page.variant is Variant.HFP else self.tate)[page.n] = run_to_einf(page)

    def monomial(self, cls: tuple, h: int = 0) -> Monomial:
        """v1^h times the class cls = (level, t, mu, lam, u), as a monomial,
        for labels and messages."""
        level, t, mu, lam, u = cls
        return Monomial(level, self.ell, t + h, mu + h, lam, u)


class KernelLabel(tuple):
    """A kernel generator's label as the tuple (free, twist, stem, line):
    the class (level, t, mu, lam, u) of its free column, the twist and its
    orbit key.  str formats it, ker:L{level}:{monomial}@{stem},{line}, only
    where a message reads it."""

    __slots__ = ()

    def __str__(self):
        (level, t, mu, lam, u), ell, stem, line = self
        return f"ker:L{level}:{Monomial(level, ell, t, mu, lam, u)}@{stem},{line}"


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


class SurjectivityReport:
    def __init__(self):
        self.failures = []
        self.pieces_checked = 0
        # {(stem, line, s): src_dim - tgt_dim} at the first piece, in walk
        # order, of the smallest margin; empty where no piece is checked
        self.margins = {}

    @property
    def all_surjective(self) -> bool:
        return not self.failures


class TrComparison(NamedTuple):
    dim_mismatches: list
    torsion_mismatches: list

    @property
    def ok(self) -> bool:
        return not self.dim_mismatches and not self.torsion_mismatches


class TrResult(NamedTuple):
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


def _one_per_column(p: int, entries: dict, row_stops: list, col_stops: list) -> tuple | None:
    """(lives, kernel) of a matrix {(row, column): residue} whose columns
    are ordered by stop and hold at most one entry each, or None for any
    other matrix.

    Such a matrix's rows have disjoint supports, so each row some column
    hits is one unit of rank, alive below min(row stop, stop of the last
    column hitting it), the pivot _echelon_lives finds.  Its kernel is
    fplinalg.kernel_basis's free-column basis: an empty column j gives
    {j: 1}, and a column j hitting a row first hit by column j0 gives
    {j: 1, j0: -v_j / v_j0}.
    """
    hit = {j: (i, v) for (i, j), v in entries.items()}
    if len(hit) != len(entries):
        return None
    first, last, kernel = {}, {}, []
    for j in range(len(col_stops)):
        if j not in hit:
            kernel.append({j: 1})
            continue
        i, v = hit[j]
        last[i] = j
        if i in first:
            j0, v0 = first[i]
            kernel.append({j: 1, j0: -v * pow(v0, -1, p) % p})
        else:
            first[i] = (j, v)
    return sorted(min(row_stops[i], col_stops[j]) for i, j in last.items()), kernel


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

    Classes are grouped by orbit key (base stem, line), each page landing
    its orbits straight in the key lists (EInfResult.land_orbits).  At each
    key the columns are the fixed-point classes as (top, class), ordered by
    life (the top of their alive interval), and the rows the Tate classes
    as (class, top), ordered by class.  Every orbit of a key starts at the
    key's first height in the window and stops at min(top, the key's end),
    so _stops solves that span once per key and reads each stop off a top.
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
        self._cols: dict = {}  # orbit key -> [(top, class)] of its fixed-point orbits, sorted
        self._rows: dict = {}  # orbit key -> [(class, top)] of its Tate orbits, sorted
        self._assemble()

    # -- basis assembly ---------------------------------------------------

    def _assemble(self):
        # land_orbits lands one alive interval per ladder, from the bottom of
        # its modeled heights, or raises; a ladder modeled from above height
        # 0 has its bottom stem below lo_pad, more than q below the window,
        # so every orbit of a key starts at the key's first height (_stops).
        for pages, side, as_rows in ((self.pages.hfp, self._cols, False), (self.pages.tate, self._rows, True)):
            for res in pages.values():
                res.land_orbits(self.pages.window, side, as_rows)
            for orbits in side.values():
                orbits.sort()

    def _stops(self, stem: int, cols, rows) -> tuple:
        """(start, column stops, row stops) of the columns and rows of an
        orbit key of base stem stem, the key's span solved once: each orbit
        starts at height start, the first whose stem reaches the pages'
        window, and stops at min(top, end), end the first height past both
        that window and the v1 cutoff."""
        q, (lo, hi) = self.ctx.q, self.pages.window
        start, end = -((stem - lo) // q), (hi - stem) // q + 1
        if end > self.pages.v1_cutoff:
            end = self.pages.v1_cutoff
        return (start if start > 0 else 0, [top if top < end else end for top, _c in cols],
                [top if top < end else end for _c, top in rows])

    def _base(self, key, start: int, col_stops: list, row_stops: list) -> tuple:
        """(entries, lives, kernel) of the base matrix of phi - can at an
        orbit key, given its start and the stops of its columns and rows
        (_stops):
        {(row, column): residue}; the sorted heights below which each unit
        of rank lives, so the piece at height s has rank #{life > s}; and
        its kernel basis, one vector per free column, whose free column is
        its largest index and the latest to die.  A matrix with at most one
        entry per column has its lives and kernel read off its entries
        (_one_per_column); any other is eliminated.

        Every can/phi image of a column must be a Tate row, alive as long
        as on its page.  The images are named by can_image and phi_image
        and looked up among the key's rows, which start with the columns,
        at start; the Tate page is asked only whether an image is still
        alive where its row stops below the column, a missing row stopping
        at start.
        """
        p = self.ctx.p
        index = {cls: i for i, (cls, _top) in enumerate(self._rows.get(key, ()))}
        entries: dict = {}
        for j, (_top, cls) in enumerate(self._cols.get(key, ())):
            for img, sign, what in self._images(cls):
                i = index.get(img)
                self._refuse_missing(img, what, col_stops[j], start if i is None else row_stops[i])
                if i is not None:
                    entries[(i, j)] = (entries.get((i, j), 0) + sign) % p
        entries = {k: v for k, v in entries.items() if v}
        found = _one_per_column(p, entries, row_stops, col_stops)
        if found is None:
            found = (_echelon_lives(p, entries, row_stops, col_stops),
                     fplinalg.kernel_basis(fplinalg.FpMatrix(p, len(row_stops), len(col_stops), entries)))
        return (entries, *found)

    def _images(self, cls: tuple) -> list:
        """[(image, sign, map)] of a column's class: its can image, sign -1,
        then below the top level its phi image, sign +1, where not None."""
        imgs = [] if (img := can_image(cls)) is None else [(img, -1, "can")]
        if cls[0] < self.top and (img := phi_image(cls, self.pages)) is not None:
            imgs.append((img, 1, "phi"))
        return imgs

    def _refuse_missing(self, img: tuple, what: str, col_stop: int, stop: int):
        """Raise unless the image img of a column alive below col_stop is
        dead on its Tate page where its row stops, at stop; an image no row
        of the key holds stops at the key's start."""
        if stop < col_stop and self.pages.tate[img[0]].alive(img, stop):
            raise InvariantError(f"{what} image {self.pages.monomial(img)} missing from Tate basis")

    def _small_base(self, cols, rows, start: int, col_stops: list, row_stops: list) -> tuple:
        """_base of an orbit key of at most one column and one row, by
        arithmetic: the one entry is the sum mod p of the signs of the images
        that hit the row; a nonzero entry is one unit of rank, alive below
        min(row stop, column stop), and otherwise the column, if any, is the
        kernel.  The images are refused as in _base, in the same order."""
        if not cols:
            return {}, [], []
        (_top, cls), = cols
        col_stop, = col_stops
        row, row_stop = (rows[0][0], row_stops[0]) if rows else (None, 0)
        v = 0
        for img, sign, what in self._images(cls):
            hit = img == row
            self._refuse_missing(img, what, col_stop, row_stop if hit else start)
            if hit:
                v += sign
        v %= self.ctx.p
        if v:
            return {(0, 0): v}, [min(row_stop, col_stop)], []
        return {}, [], [{0: 1}]

    def _base_of(self, key) -> tuple:
        """_base of an orbit key, its start and stops read by _stops."""
        return self._base(key, *self._stops(key[0], self._cols.get(key, ()), self._rows.get(key, ())))

    def matrix(self, key) -> fplinalg.FpMatrix:
        """phi - can on the base classes of an orbit key (base stem, line).
        The piece at height s is this matrix cut to the rows and columns
        alive at s."""
        entries = self._base_of(key)[0]
        return fplinalg.FpMatrix(self.ctx.p, len(self._rows.get(key, ())), len(self._cols.get(key, ())), entries)

    def kernel(self, key):
        """Kernel basis of matrix(key), one vector per free column; its
        free column is its largest index, and the latest to die."""
        return self._base_of(key)[2]

    # -- structure extraction and checks, in one walk ----------------------

    @cached_property
    def _walk(self) -> tuple:
        """(generators, surjectivity report, v1 failures) from one _visit of
        each orbit key with a height in the window, keys ascending; the
        first reader runs it."""
        gens, v1_failures, rep = [], [], SurjectivityReport()
        for key in sorted(self._cols.keys() | self._rows.keys()):
            self._visit(key, self._cols.get(key, ()), self._rows.get(key, ()), gens, rep, v1_failures)
        rep.failures.sort()
        return gens, rep, sorted(v1_failures)

    def _visit(self, key, cols, rows, gens: list, rep: SurjectivityReport, v1_failures: list):
        """Add an orbit key's generators, pieces checked and failures of both
        checks to gens, rep and v1_failures, from one base, if the key has a
        height in the window; a margin below rep's smallest replaces it.  A
        key of at most one column and one row takes _small_base, any other
        _base; both get the key's start and stops from one _stops.

        A key's counts are step functions of the height, so one index per
        sorted list (column stops, rank lives, carried stops, row stops)
        moves up the key's heights, each past the stops at or below the
        height: the count alive there is the list's length less the index.
        """
        q, hfp, cutoff = self.ctx.q, self.pages.hfp, self.pages.v1_cutoff
        stem, line = key
        start, col_stops, row_stops = self._stops(stem, cols, rows)
        row_ends = sorted(row_stops)
        col_top, row_top = col_stops[-1] if col_stops else 0, row_ends[-1] if row_ends else 0
        hs = orbit_heights(q, stem, max(col_top, row_top), self.window)
        if not hs:
            return
        if len(cols) < 2 and len(rows) < 2:
            _entries, lives, kernel = self._small_base(cols, rows, start, col_stops, row_stops)
        else:
            _entries, lives, kernel = self._base(key, start, col_stops, row_stops)
        v1_from = hs.start
        carried = []
        if v1_from == 0 and col_top:  # the base stem is in the window
            for vec in kernel:
                last = max(vec)
                top, free = cols[last]
                gens.append(Generator(KernelLabel((free, self.ell, stem, line)), Bidegree(*key),
                                      min(top, cutoff), hfp[free[0]]._certified(top)))
                carried.append(col_stops[last])
            carried.sort()
            v1_from = 1
        v1_to, rows_to = min(hs.stop, col_top), min(hs.stop, row_top)
        failures = rep.failures
        n_cols, n_lives, n_carried, n_rows = len(col_stops), len(lives), len(carried), len(row_ends)
        low = min(rep.margins.values(), default=n_cols + 1)  # above any margin of this key
        ci = li = ki = ri = 0
        for s in hs:
            while ci < n_cols and col_stops[ci] <= s:
                ci += 1
            while li < n_lives and lives[li] <= s:
                li += 1
            if v1_from <= s < v1_to:
                while ki < n_carried and carried[ki] <= s:
                    ki += 1
                kdim, up = (n_cols - ci) - (n_lives - li), n_carried - ki
                if kdim > up:
                    v1_failures.append(((stem + s * q, line, s), kdim, up))
            if s < rows_to:
                while ri < n_rows and row_ends[ri] <= s:
                    ri += 1
                piece, alive, rank = (stem + s * q, line, s), n_rows - ri, n_lives - li
                margin = n_cols - ci - alive
                if margin < low:
                    low, rep.margins = margin, {piece: margin}
                if rank < alive:
                    failures.append((piece, alive, rank))
        rep.pieces_checked += max(0, rows_to - hs.start)

    def generators(self) -> list:
        """Kernel generators: the height-0 kernel basis of each orbit key in
        the window, each with the torsion of its chain.  v1^r of a chain is
        zero exactly when every component has died (probe_element_torsion),
        and every column of a key in the window is alive from height 0, so
        the torsion is the largest top among the vector's columns.  The
        columns are ordered by life, so that is the top of the free column,
        and no basis of the kernel has smaller torsions.  Its page certifies
        it (EInfResult._certified), or the generator has certified=False and
        the lower bound min(top, v1 cutoff), as an E-infinity generator does."""
        return self._walk[0]

    def decomposition(self) -> CyclicDecomposition:
        return CyclicDecomposition(self.generators())

    def surjectivity_report(self) -> SurjectivityReport:
        """gr(phi - can) onto the Tate piece at every (stem, line, s) of the
        window: the rank there is the number of Tate rows alive."""
        return self._walk[1]

    def check_v1_surjectivity(self) -> list:
        """[((stem, line, s), kernel dim, carried dim)] over the pieces of
        the window where a kernel bar is born above its orbit's bottom.

        v1 carries the height-0 generators up while their free columns
        live; the rest of the kernel at s, #{columns alive} - rank, was
        born above height 0 (all of it where the orbits reach the window
        from below).
        """
        return self._walk[2]


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
    raises InvariantError, in this order, unless gr(phi - can) is onto every
    Tate piece of the window, unless v1 is onto the kernel, and at the first
    uncertified generator (torsion_multiset, naming its label);
    with_surjectivity attaches the first check's report to the result.
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
    multiset = torsion_multiset(dec, f"l{ell}:")
    comp = None
    if mode == "both":
        lo, hi = window
        routes = (multiset, closed)
        comp = TrComparison(
            differences(*(orbit_dims(ctx.q, window, route.items()).entries for route in routes)),
            differences(*({key: m for key, m in route.items() if lo <= key[0] <= hi} for route in routes)),
        )
        if not comp.ok:
            first = (comp.dim_mismatches or comp.torsion_mismatches)[0]
            raise VerificationFailure(f"twist l={ell}: oracle and closed form disagree at {first}")
    return TrResult(multiset, dec, comp, surj if with_surjectivity else None)
