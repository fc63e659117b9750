"""Brute-force twisted Nygaard spectral sequence engine.

The page for level n, twist l is the free module on monomials

    se(l*p^n) * t^a * mu^b * l1^e1 * u^e2

with exponent ranges set by the variant (fixed points: a,b >= 0; Tate:
a in Z; mu-inverted: b in Z).  v1 is never an independent variable: it is
t*mu, so multiplication by v1 moves along the "ladder" of monomials with
a - b and (e1, e2) fixed.  Differentials are concentrated in stages

    T_0, ..., T_{n-1}, then U,

and every stage sends a monomial to a single monomial with a scalar
coefficient that is constant along each ladder:

    stage T_k on t^a mu^b (e1 = 0):  coefficient ((a - b + c)/p^k) mod p,
        c = -l*n*(p-1)*p^(n-1), target = input * v1^(p+...+p^k) * t^(p^(k+1)) * l1
    stage U on x*u:  x * v1^(1+p+...+p^(n-1)) * t^(p^n), coefficient a unit.

All "defined up to a unit" coefficients are pinned to +1; dimensions and
torsion orders do not depend on that choice.  Because the maps are diagonal
on monomials, iterated subquotient homology reduces to pairwise interval
cancellation along ladders, which this module performs exactly.  The
"dense" engine (run_to_einf_dense) computes the same homology with full
linear algebra over F_p on the explicit page basis, one stage at a time;
its vectors are sparse rows ({basis index: residue}, see fplinalg).  It is
an independent cross-check on small windows, exercised by the test suite.

Layout.  A ladder is keyed (e1, e2, delta) with delta = a - b.  For each
(e1, e2) the modeled deltas, the band, form at most two ranges, one per
side of the fixed-point split (delta < 0 on the mu side, delta >= 0 on the
t side).  The page sweeps only part of the band: each range is clipped to
the hull of the ladders its readers can depend on (SSPage._cone), and the
clipped range is a Segment.  On it the base exponents and the bottom stem
stem0 are affine in delta, and so are the modeled heights [h_lo, h_cap),
up to the floor of a division, so none of them is stored.  The only
per-ladder state is the ladder's alive height intervals, kept in two
array('q') columns lo and hi at index delta - start: [lo, hi) is the
ladder's one interval, lo == hi marks a dead ladder, and lo < 0 sends the
reader to the segment's side map `split`, which holds the two intervals
of each of the few split ladders (0.2-2 %); no stage cuts a split ladder
again.  The columns are not containers the garbage collector tracks, so a
page costs it a handful of objects rather than one list per ladder.

Stages.  SSPage._stage_sources states once which ladders a stage map acts
on, as progressions of source deltas with a constant coefficient: T_k
walks each nonzero coefficient r of the e1 = 0 ladders, delta = r*p^k - c
(mod p^(k+1)), U walks every e2 = 1 ladder.  The target is delta + P on
the (e1, e2) the stage maps to, so the sweep finds it by index arithmetic
on the target segment; the dense engine reads the same rule through
StageMap.

Readers.  A height h of a ladder has stem stem0 + h*q, so a class below
the v1 cutoff V can meet a stem window [lo, hi] only when stem0 lies in
[lo - (V-1)*q, hi].  The E-infinity readers walk only those deltas of each
segment (SSPage._reach), and a stage cut reads only its pair's states
before the stage, so the page sweeps the backward cone of those ladders
through the stage partners and no other.  A class on the band whose
ladder the page did not sweep has no answer: EInfResult raises rather
than call it dead.  The dense engine reads the whole band, since a
subquotient needs every partner of the classes at the window stems, and
keys its basis by classes (t, mu, lam, u), the monomials
se(l*p^n) t^t mu^mu l1^lam u^u.  SSPage.ladders is a read-only mapping
view of the segments with Ladder values, made on first use; its readers
are tests and outside tracing, and no code in this package uses it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
from enum import Enum
from functools import cached_property
from itertools import chain, compress, repeat
from operator import floordiv, ne
from types import MappingProxyType
from typing import NamedTuple

from . import fplinalg
from .errors import InputError, InvariantError, ResourceError, StateError
from .graded import (
    Bidegree,
    CyclicDecomposition,
    DimTable,
    Generator,
    Monomial,
    PrimeContext,
    geo,
    range_len,
)

# A swept ladder costs 16 bytes in its segment's two array('q') columns,
# so the cap holds a page's columns to 80 MB; the side map adds a pair of
# intervals per split ladder.  It counts the swept ladders, the cone of
# the page's readers, not the modeled band around them.
# SSPage.check_size enforces it before any column is allocated.
MAX_LADDERS = 5_000_000
# The dense engine's cost per basis element hardly grows with the page:
# p=3 n=2 l=1 tate takes 9.4 us per element at 13,524 elements and 9.5 us
# at 79,028.  Near this cap five pages took 8.9-9.9 us and 520-610 B of
# peak RSS per element, so a page at the cap runs in about 0.7-0.8 s and
# 40-47 MB over the interpreter (2-core x86-64 Xeon).  run_to_einf_dense
# checks it before any basis entry is made.
DENSE_MAX_BASIS = 80_000


class Variant(str, Enum):
    HFP = "hfp"  # homotopy fixed points: a >= 0, b >= 0
    TATE = "tate"  # t-inverted: a in Z, b >= 0
    MUINV = "muinv"  # mu-inverted: a >= 0, b in Z


def default_v1_cutoff(ctx: PrimeContext, n: int) -> int:
    return 2 * geo(ctx.p, 0, n + 1)


# An alive set is a sequence of half-open height intervals (lo, hi) that
# are sorted and gapped: lo < hi within an interval and hi < lo' between
# neighbours.  A ladder starts with one interval, its modeled heights
# [h_lo, h_cap), and a cut trims one end of an interval or splits it in
# two.  A split ladder holds exactly two intervals and is never cut again:
# no later stage pair overlaps it.  That is checked, not derived: run_stage
# tests every pair that holds a split ladder and raises InvariantError on
# an overlap.  (The tests also find that every split keeps both ends of
# [h_lo, h_cap).)  A segment keeps one interval in its lo/hi columns and a
# split's two in its side map; Segment.intervals reads either form and
# Segment.store writes the right one.


def _deltas_by_stem(K: int, stem_slope: int, stem_lo: int, stem_hi: int) -> range:
    """The deltas whose bottom stem K + stem_slope*delta (stem_slope < 0)
    lies in [stem_lo, stem_hi]."""
    s = -stem_slope
    return range(-((stem_hi - K) // s), (K - stem_lo) // s + 1)


def _clip(r: range, lo: int, hi: int) -> range:
    """The elements of r (step > 0) in [lo, hi)."""
    first = r.start if r.start >= lo else r.start + -((r.start - lo) // r.step) * r.step
    return range(first, min(r.stop, hi), r.step)


def _floors(c: int, slope: int, x0: int, x1: int, q: int):
    """(c - slope*x) // q for x in range(x0, x1), slope < 0, as a C-level iterator."""
    return map(floordiv, range(c - slope * x0, c - slope * x1, -slope), repeat(q))


_SPLIT = -1  # lo of a split ladder, whose two intervals are in the side map

# The (source, target) (e1, e2) pairs of a stage: T_k maps e1 = 0 to e1 = 1,
# U maps e2 = 1 to e2 = 0.
_T_PAIRS = (((0, 0), (1, 0)), ((0, 1), (1, 1)))
_U_PAIRS = (((0, 1), (0, 0)), ((1, 1), (1, 0)))


class Segment:
    """The ladders (e1, e2, delta) of a page for delta in `deltas`.

    A ladder's base monomial is t^(a_slope*delta) mu^(b_slope*delta) and
    its bottom stem is K + stem_slope*delta.  The ladder at delta =
    deltas.start + i has the one alive interval [lo[i], hi[i]) when 0 <=
    lo[i] < hi[i], none when lo[i] == hi[i], and is split when lo[i] < 0:
    then split[i] holds its two intervals, and no stage cuts it again.
    """

    __slots__ = ("e1", "e2", "deltas", "a_slope", "b_slope", "stem_slope", "K", "lo", "hi", "split")

    def __init__(self, e1: int, e2: int, deltas: range, a_slope: int, b_slope: int, stem_slope: int, K: int,
                 lo: array | None = None, hi: array | None = None, split: dict | None = None):
        self.e1 = e1
        self.e2 = e2
        self.deltas = deltas
        self.a_slope = a_slope
        self.b_slope = b_slope
        self.stem_slope = stem_slope
        self.K = K
        self.lo = lo  # filled by SSPage._build
        self.hi = hi
        self.split = {} if split is None else split

    def by_stem(self, stem_lo: int, stem_hi: int) -> range:
        """The deltas of the segment whose bottom stem lies in [stem_lo, stem_hi]."""
        r = _deltas_by_stem(self.K, self.stem_slope, stem_lo, stem_hi)
        return _clip(self.deltas, r.start, r.stop)

    def intervals(self, i: int) -> tuple:
        """The alive intervals of the ladder at index i, ascending."""
        lo = self.lo[i]
        if lo < 0:
            return self.split[i]
        hi = self.hi[i]
        return ((lo, hi),) if lo < hi else ()

    def store(self, i: int, intervals) -> None:
        """Make no interval, one, or the two of a split the alive set of the
        ladder at index i."""
        if len(intervals) == 2:
            self.split[i] = tuple(intervals)
            self.lo[i], self.hi[i] = _SPLIT, 0
        else:
            self.split.pop(i, None)
            self.lo[i], self.hi[i] = intervals[0] if intervals else (0, 0)


class Ladder:
    """Read-only view of one ladder: all v1-multiples of one pure monomial.

    The fields are computed from the segment; `alive` is a list made from
    the segment's columns on each read.
    """

    __slots__ = ("_seg", "e1", "e2", "delta", "base_a", "base_b", "stem0", "h_lo", "h_cap")

    def __init__(self, page: "SSPage", seg: Segment, delta: int):
        self._seg = seg
        self.e1 = seg.e1
        self.e2 = seg.e2
        self.delta = delta
        self.base_a = seg.a_slope * delta
        self.base_b = seg.b_slope * delta
        self.stem0 = seg.K + seg.stem_slope * delta
        self.h_lo, self.h_cap = page._heights(self.stem0)  # h_cap exclusive

    @property
    def alive(self) -> list:
        return list(self._seg.intervals(self.delta - self._seg.deltas.start))


class SSPage:
    """One twisted Nygaard page and its staged differential state."""

    def __init__(self, ctx: PrimeContext, n: int, ell: int, variant: Variant, window, v1_cutoff: int):
        self._place(ctx, n, ell, variant, window, v1_cutoff)
        self._build()

    @classmethod
    def check_size(cls, ctx: PrimeContext, n: int, ell: int, variant: Variant, window, v1_cutoff: int) -> int:
        """The ladder count of SSPage(ctx, n, ell, variant, window, v1_cutoff),
        from its segment ranges alone, allocating no ladder.  Raises what the
        constructor would raise before building: InputError, or
        ResourceError past MAX_LADDERS ladders."""
        shape = cls.__new__(cls)
        shape._place(ctx, n, ell, variant, window, v1_cutoff)
        return shape.ladder_count

    def _place(self, ctx, n, ell, variant, window, v1_cutoff):
        """Everything but the alive columns: parameters, schedule, padded
        window and the swept segments' delta ranges, the band clipped to the
        cone of the window's readers; then the size guard."""
        if n < 0 or ell < 0:
            raise InputError("need n >= 0 and twist >= 0")
        lo, hi = window
        if lo > hi:
            raise InputError(f"empty window {window}")
        self.ctx = ctx
        self.n = n
        self.ell = ell
        self.variant = Variant(variant)
        self.window = (lo, hi)
        self.v1_cutoff = v1_cutoff
        if self.v1_cutoff < 1:
            raise InputError("v1 cutoff must be >= 1")
        p = ctx.p
        # Stage schedule T_0 .. T_{n-1}, then U: name -> (k, G, P), k None
        # for U.  A stage sends x to x * v1^G * t^P.
        self.schedule = {f"T{k}": (k, geo(p, 1, k), p ** (k + 1)) for k in range(n)}
        self.schedule["U"] = (None, geo(p, 0, n - 1), p**n)
        self.stages = tuple(self.schedule)
        self.stages_done: list = []
        # Interval kills are decided from target aliveness one v1-jump up,
        # so correctness of heights < V needs the modeled band to extend by
        # the total of all stage jumps.
        slack = sum(G + P for _k, G, P in self.schedule.values())
        self._v_internal = self.v1_cutoff + slack + 4
        # Stems: differentials step down by 1 per stage, torsion probing
        # climbs by q per power of v1.
        self.lo_pad = lo - ctx.q - 2 * (n + 3)
        self.hi_pad = hi + 2 * self.v1_cutoff * p
        self._twist_coeff = -ell * n * (p - 1) * p ** (n - 1) if n >= 1 else 0
        # the bottom stems of the ladders the window's readers read: v1^h g
        # with h below the cutoff reaches the window from (V-1)*q below it
        self.read_stems = (lo - (self.v1_cutoff - 1) * ctx.q, hi)
        self.segments = self._cone(self._band(), *self.read_stems)
        self.ladder_count = sum(range_len(seg.deltas) for seg in self._all_segments())
        if self.ladder_count > MAX_LADDERS:
            raise ResourceError(f"page needs more than {MAX_LADDERS} ladders; shrink the window or cutoff")

    # -- construction ---------------------------------------------------

    def _band(self) -> dict:
        """{(e1, e2): segments} over every modeled ladder, the padded band
        that _heights models, made afresh with no columns."""
        return {(e1, e2): self._side_segments(e1, e2) for e1 in (0, 1) for e2 in (0, 1)}

    def _cone(self, band: dict, stem_lo: int, stem_hi: int) -> dict:
        """The band cut to the ladders a reader of the bottom stems [stem_lo,
        stem_hi] can depend on, the nonempty segments per (e1, e2).

        A stage cut reads only its pair's two states before the stage, so a
        read ladder depends on its partner at each stage, on their partners
        at the stages before, and so on back to the first.  The walk runs the
        schedule backwards and keeps one delta interval per segment, the
        hull of all it has added: at each stage a needed source needs its
        target at delta + P, and a needed target its source at delta - P,
        over the stage's (e1, e2) pairs as _stage_sources walks them.  The
        hull ignores which progressions the stage acts on, so it holds every
        true partner and some ladders more; those are swept, and no reader
        reads them.  The band segments are clipped in place.
        """
        need = {}  # segment -> (first, stop) of its needed deltas, or None
        for segs in band.values():
            for seg in segs:
                r = seg.by_stem(stem_lo, stem_hi)
                need[seg] = (r.start, r.stop) if r else None

        def widen(seg, interval, shift):
            """Hull seg's need with interval + shift, cut to its deltas."""
            d = seg.deltas
            a, b = interval[0] + shift, interval[1] + shift
            if a < d.start:
                a = d.start
            if b > d.stop:
                b = d.stop
            if a < b:
                old = need[seg]
                if old is not None:
                    if old[0] < a:
                        a = old[0]
                    if old[1] > b:
                        b = old[1]
                need[seg] = (a, b)

        for stage in reversed(self.stages):
            k, _G, P = self.schedule[stage]
            for skey, tkey in _U_PAIRS if k is None else _T_PAIRS:
                for src in band[skey]:
                    for tgt in band[tkey]:
                        if need[src] is not None:
                            widen(tgt, need[src], P)
                        if need[tgt] is not None:
                            widen(src, need[tgt], -P)
        for seg, interval in need.items():
            if interval is not None:
                seg.deltas = range(*interval)
        return {key: tuple(seg for seg in segs if need[seg] is not None) for key, segs in band.items()}

    def _side_segments(self, e1: int, e2: int) -> tuple:
        """The nonempty band segments of (e1, e2), deltas ascending.

        A ladder is worth modeling when some height h in [0, v_internal)
        puts its stem inside [lo_pad, hi_pad]; stems climb with h, so that
        means lo_pad - (v_internal-1)*q <= stem0 <= hi_pad.
        """
        p = self.ctx.p
        K = 2 * self.ell * p**self.n + (2 * p - 1) * e1 - e2  # stem0 at delta = 0
        lo_need = self.lo_pad - (self._v_internal - 1) * self.ctx.q
        # t side: base (delta, 0), stem0 = K - 2*delta; mu side: base
        # (0, -delta), stem0 = K - 2p*delta.
        t_deltas = _deltas_by_stem(K, -2, lo_need, self.hi_pad)
        mu_deltas = _deltas_by_stem(K, -2 * p, lo_need, self.hi_pad)
        if self.variant is Variant.TATE:
            sides = ((t_deltas, 1, 0, -2),)
        elif self.variant is Variant.MUINV:
            sides = ((mu_deltas, 0, -1, -2 * p),)
        else:  # HFP: the mu side holds delta < 0, the t side delta >= 0
            sides = (
                (range(mu_deltas.start, min(mu_deltas.stop, 0)), 0, -1, -2 * p),
                (range(max(t_deltas.start, 0), t_deltas.stop), 1, 0, -2),
            )
        return tuple(Segment(e1, e2, deltas, a, b, s, K) for deltas, a, b, s in sides if deltas)

    def _all_segments(self):
        """Every segment, in key order."""
        for segs in self.segments.values():
            yield from segs

    def _heights(self, stem0: int) -> tuple:
        """(h_lo, h_cap) of the ladder with bottom stem stem0: the heights
        below v_internal whose stem lies in [lo_pad, hi_pad], h_cap exclusive.
        Nonempty for every modeled ladder."""
        q = self.ctx.q
        h_lo = -((stem0 - self.lo_pad) // q)
        h_cap = (self.hi_pad - stem0) // q + 1
        return (h_lo if h_lo > 0 else 0, h_cap if h_cap < self._v_internal else self._v_internal)

    def _build(self):
        """Give every ladder its one starting interval [h_lo, h_cap)."""
        q, v, lo_pad, hi_pad = self.ctx.q, self._v_internal, self.lo_pad, self.hi_pad
        # h_lo = 0 iff stem0 >= lo_pad, and h_cap = v iff stem0 <= full_below.
        # Stems fall as delta rises, so the deltas split in three runs: stem0
        # above both bounds (h_lo = 0), between them, and below both (h_cap
        # = v).  Between them h_lo = 0 and h_cap = v when full_below >=
        # lo_pad, and neither is clamped otherwise.
        full_below = hi_pad - (v - 1) * q
        wide = full_below >= lo_pad
        for seg in self._all_segments():
            d, K, sl = seg.deltas, seg.K, seg.stem_slope
            top = hi_pad - K + q  # unclamped h_cap = (top - sl*x) // q
            bottom = lo_pad - K + q - 1  # unclamped h_lo = (bottom - sl*x) // q
            mid = seg.by_stem(min(lo_pad, full_below + 1), max(full_below, lo_pad - 1))
            m0 = min(mid.start, d.stop)
            m1 = max(mid.stop, m0)
            lo = array("q", bytes(8 * (m0 - d.start)))
            hi = array("q", _floors(top, sl, d.start, m0, q))
            if wide:
                lo.frombytes(bytes(8 * (m1 - m0)))
                hi.extend(array("q", [v]) * (m1 - m0))
            else:
                lo.extend(_floors(bottom, sl, m0, m1, q))
                hi.extend(_floors(top, sl, m0, m1, q))
            lo.extend(_floors(bottom, sl, m1, d.stop, q))
            hi.extend(array("q", [v]) * (d.stop - m1))
            seg.lo, seg.hi = lo, hi

    # -- lookups ----------------------------------------------------------

    @cached_property
    def ladders(self) -> Mapping:
        """Read-only {(e1, e2, delta): Ladder} view of the segments, in key
        order, made on first use."""
        views = {(seg.e1, seg.e2, d): Ladder(self, seg, d) for seg in self._all_segments() for d in seg.deltas}
        return MappingProxyType(views)

    def _segment_of(self, lam: int, u: int, delta: int):
        """The segment holding the ladder (lam, u, delta), or None off the page."""
        for seg in self.segments.get((lam, u), ()):
            if delta in seg.deltas:
                return seg
        return None

    def _reach(self, stem_lo: int, stem_hi: int):
        """(segment, indices) per segment, in key order, over the ladders
        whose bottom stem lies in [stem_lo, stem_hi]."""
        for seg in self._all_segments():
            deltas = seg.by_stem(stem_lo, stem_hi)
            if deltas:
                start = seg.deltas.start
                yield seg, range(deltas.start - start, deltas.stop - start)

    # -- stages ----------------------------------------------------------

    def _stage_sources(self, stage: str, segments: dict | None = None):
        """(coefficient, source segment, source deltas, target (e1, e2)) over
        the progressions of ladders of `segments` (the swept segments when
        None) on which the stage map is nonzero.

        T_k acts on t^a mu^b (e1 = 0) when vp(delta + c) == k, with the
        coefficient (delta + c)/p^k mod p; so coefficient r in 1..p-1 sits
        on delta = r*p^k - c (mod p^(k+1)), walked in steps of p^(k+1).  U
        acts on every e2 = 1 ladder with coefficient 1.  A source at delta
        maps to the ladder at delta + P of the target (e1, e2), which need
        not be on the page.
        """
        k = self.schedule[stage][0]
        segments = self.segments if segments is None else segments
        if k is None:
            for skey, tkey in _U_PAIRS:
                for seg in segments[skey]:
                    yield 1, seg, seg.deltas, tkey
            return
        p = self.ctx.p
        step = p ** (k + 1)
        for skey, tkey in _T_PAIRS:
            for seg in segments[skey]:
                d = seg.deltas
                for r in range(1, p):
                    first = d.start + (r * p**k - self._twist_coeff - d.start) % step
                    yield r, seg, range(first, d.stop, step), tkey

    def run_stage(self, stage: str):
        expected = self.stages[len(self.stages_done)] if len(self.stages_done) < len(self.stages) else None
        if stage != expected:
            raise StateError(f"stage {stage} out of order; expected {expected}")
        _k, G, P = self.schedule[stage]
        # The cuts are applied as they are found.  That equals cutting from
        # the state before the stage, because each ladder is in at most one
        # pair: T_k sources have e1 = 0 and targets e1 = 1, U sources have
        # e2 = 1 and targets e2 = 0, and delta -> delta + P is injective.
        for _coeff, src, deltas, tkey in self._stage_sources(stage):
            Alo, Ahi, a0 = src.lo, src.hi, src.deltas.start
            for tgt in self.segments[tkey]:
                t0 = tgt.deltas.start
                run = _clip(deltas, t0 - P, tgt.deltas.stop - P)  # targets on tgt
                if not run:
                    continue
                Blo, Bhi = tgt.lo, tgt.hi
                off = a0 + P - t0  # target index of source index i
                # t^a mu^b goes to t^(a+G+P) mu^(b+G): height h at delta
                # lands at height h + s at delta + P, s = G + P + a_src - a_tgt
                ds = src.a_slope - tgt.a_slope
                s0 = G + P - tgt.a_slope * P + ds * a0
                i0, i1, step = run.start - a0, run.stop - a0, run.step
                j0, j1 = i0 + off, i1 + off
                pairs = zip(range(i0, i1, step), Alo[i0:i1:step], Ahi[i0:i1:step], Blo[j0:j1:step], Bhi[j0:j1:step])
                for i, alo, ahi, blo, bhi in pairs:
                    if alo == ahi or blo == bhi:
                        continue  # a dead end
                    s = s0 + ds * i
                    if alo < 0 or blo < 0:
                        # a split ladder is never cut again
                        for xlo, xhi in src.intervals(i):
                            for ylo, yhi in tgt.intervals(i + off):
                                if max(xlo, ylo - s) < min(xhi, yhi - s):
                                    seg, j = (src, i) if alo < 0 else (tgt, i + off)
                                    key = (seg.e1, seg.e2, seg.deltas.start + j)
                                    raise InvariantError(f"stage {stage} cuts the split ladder {key}")
                        continue
                    # dead = [dlo, dhi) is cut from both columns in place;
                    # only a split goes to the side map
                    dlo = alo if alo > blo - s else blo - s
                    dhi = ahi if ahi < bhi - s else bhi - s
                    if dlo < dhi:
                        if alo == dlo:
                            Alo[i] = dhi
                        elif dhi == ahi:
                            Ahi[i] = dlo
                        else:
                            src.store(i, ((alo, dlo), (dhi, ahi)))
                        dlo += s
                        dhi += s
                        if blo == dlo:
                            Blo[i + off] = dhi
                        elif dhi == bhi:
                            Bhi[i + off] = dlo
                        else:
                            tgt.store(i + off, ((blo, dlo), (dhi, bhi)))
        self.stages_done.append(stage)


class StageMap:
    """The stage differential on the classes (t, mu, lam, u) of a page, the
    monomials se(l*p^n) t^t mu^mu l1^lam u^u.

    It reads only the page's band (SSPage._band) and schedule, never the
    alive sets, so it serves any stage of the schedule in any state of the
    page.
    """

    def __init__(self, page: SSPage, stage: str):
        if stage not in page.schedule:
            raise InputError(f"stage {stage} not scheduled for n={page.n}")
        self.page = page
        _k, G, P = page.schedule[stage]
        self._jump = (G + P, G)  # added to (t_exp, mu_exp)
        # source key -> (coefficient, target (e1, e2))
        self._images = {
            (seg.e1, seg.e2, delta): (coeff, tkey)
            for coeff, seg, deltas, tkey in page._stage_sources(stage, page._band())
            for delta in deltas
        }

    def on_class(self, cls: tuple):
        """(coefficient, target class), or None when the map is zero.

        The map is read from SSPage._stage_sources, as the sweep reads it.  A
        class with p-valuation of (t - mu + twist) strictly below the stage
        index was already consumed at an earlier stage; it can only be
        queried here through a class on which the induced differential
        vanishes, so the map returns None there as well.  Every source of
        the map lies on the band, so a class off the band gets None too.
        """
        t, mu, lam, u = cls
        im = self._images.get((lam, u, t - mu))
        if im is None:
            return None
        coeff, (tlam, tu) = im
        dt, dmu = self._jump
        return coeff, (t + dt, mu + dmu, tlam, tu)


class EInfClass(NamedTuple):
    representative: Monomial  # elementary vector in the E2 basis
    bidegree: Bidegree
    v1_torsion: float  # exact order, or a lower bound when not certified
    certified: bool


class EInfResult:
    """Survivors of a fully run page, with v1-module structure."""

    def __init__(self, page: SSPage):
        if list(page.stages_done) != list(page.stages):
            raise StateError("page has not completed all stages")
        self.page = page

    # aliveness / chain queries on classes (level, t, mu, lam, u), the
    # monomial se(l p^level) t^t mu^mu l1^lam u^u, used by the TR kernel oracle

    def _interval(self, cls: tuple, h: int):
        """(stem0, height, hi) for v1^h times cls at its height on its
        ladder, inside the alive interval [lo, hi); None when it is dead or
        lies on no ladder of the band.  A ladder on the band has no answer,
        InvariantError, when the page did not sweep it or its bottom stem
        lies outside page.read_stems: a ladder swept only as a partner of
        the read ones may not have all its own partners swept."""
        level, t, mu, lam, u = cls
        page = self.page
        if level != page.n:
            raise InputError(f"class {cls} belongs to a different page")
        delta = t - mu
        seg = page._segment_of(lam, u, delta)
        if seg is None:
            if (lam, u) in page.segments and any(delta in s.deltas for s in page._side_segments(lam, u)):
                raise InvariantError(f"class {cls} lies on a ladder page {page.variant} n={page.n} did not sweep: "
                                     f"no reader of its window depends on it")
            return None
        stem0 = seg.K + seg.stem_slope * delta
        read_lo, read_hi = page.read_stems
        if not read_lo <= stem0 <= read_hi:
            raise InvariantError(f"class {cls} lies on a ladder with bottom stem {stem0}, outside the read stems "
                                 f"{read_lo}..{read_hi} of page {page.variant} n={page.n}")
        height = t + h - seg.a_slope * delta
        for lo, hi in seg.intervals(delta - seg.deltas.start):
            if lo <= height < hi:
                return stem0, height, hi
        return None

    def alive(self, cls: tuple, h: int = 0) -> bool:
        return self._interval(cls, h) is not None

    def life(self, cls: tuple, h: int = 0) -> int:
        """Remaining chain length above v1^h times cls: smallest r with
        v1^(h+r) times cls dead."""
        found = self._interval(cls, h)
        if found is None:
            return 0
        stem0, height, hi = found
        return self.bounded_top(cls, stem0, hi, h) - height

    def bounded_top(self, cls: tuple, stem0: int, top: int, h: int = 0) -> int:
        """top, the exclusive top of the alive interval holding v1^h times
        cls, whose ladder has bottom stem stem0; InvariantError when it is
        the ladder's modeled boundary, above which the page knows nothing."""
        if top >= self.page._heights(stem0)[1]:
            raise InvariantError(f"life of v1^{h} * {cls} runs into the modeled boundary; enlarge the window")
        return top

    def _survivors(self, window):
        """(segment, delta, stem0, heights, lo, hi) over the surviving
        heights below the v1 cutoff whose stem lies in the window: one range
        of heights per alive interval [lo, hi) as the page has it, ladders in
        key order, h ascending.  The intervals are read off the segment's
        columns and split map directly.  A window not inside page.window
        raises InputError: the page answers only its own window's readers."""
        page = self.page
        q = page.ctx.q
        cut = page.v1_cutoff
        lo, hi = window
        if not (page.window[0] <= lo and hi <= page.window[1]):
            raise InputError(f"window {tuple(window)} is not inside the page window {page.window}")
        for seg, indices in page._reach(lo - (cut - 1) * q, hi):
            K, sl, start, split = seg.K, seg.stem_slope, seg.deltas.start, seg.split
            i0, i1 = indices.start, indices.stop
            los, his = seg.lo[i0:i1], seg.hi[i0:i1]
            for i, ilo, ihi in compress(zip(indices, los, his), map(ne, los, his)):  # the live ladders
                delta = start + i
                stem0 = K + sl * delta
                # lo <= stem0 + h*q <= hi, solved for h
                h_min = -((stem0 - lo) // q)
                h_end = min(cut, (hi - stem0) // q + 1)
                for ilo, ihi in split[i] if ilo < 0 else ((ilo, ihi),):
                    hs = range(ilo if ilo > h_min else h_min, ihi if ihi < h_end else h_end)
                    if hs:
                        yield seg, delta, stem0, hs, ilo, ihi

    def orbits(self, window):
        """(stem0, base, heights, top) over the survivor v1-orbits in a stem
        window, ladders in key order: the ladder's bottom stem, the exponents
        (t, mu, lam, u) of its height-0 monomial, the range of its alive
        heights below the v1 cutoff whose stem lies in the window, and the
        exclusive top of their alive interval, cut by neither window nor
        cutoff.

        Heights double as v1-adic filtrations in the TR kernel oracle, which
        is only right when each orbit it reads starts at the bottom of its
        ladder's modeled heights; so one ladder yields at most one orbit.
        An orbit that starts higher raises InvariantError: the name-level
        can/phi formulas would not apply to it, and this is the tripwire
        against misreading the page structure.
        """
        page = self.page
        q, lo_pad = page.ctx.q, page.lo_pad
        for seg, delta, stem0, hs, ilo, top in self._survivors(window):
            h_lo = -((stem0 - lo_pad) // q)  # the bottom of SSPage._heights(stem0)
            if ilo != (h_lo if h_lo > 0 else 0):
                key = (seg.e1, seg.e2, delta)
                raise InvariantError(f"page {page.variant} n={page.n}: broken chain on ladder {key}")
            yield stem0, (seg.a_slope * delta, seg.b_slope * delta, seg.e1, seg.e2), hs, top

    def dim_table(self, window) -> DimTable:
        """The dimensions of the page on a stem window, as counted() counts them."""
        return self.counted(window)[0]

    def _certified(self, stem0: int, top: int) -> bool:
        """Whether the torsion of a generator on the ladder with bottom stem
        stem0, alive up to the exclusive height top, is exact: the chain
        dies below the v1 cutoff and inside the modeled heights."""
        return top <= self.page.v1_cutoff and top < self.page._heights(stem0)[1]

    def _einf_class(self, seg: Segment, delta: int, stem0: int, ilo: int, ihi: int) -> EInfClass:
        """The generator v1^ilo times the height-0 class of ladder delta of seg."""
        page = self.page
        certified = self._certified(stem0, ihi)
        return EInfClass(
            representative=Monomial(page.n, page.ell, seg.a_slope * delta + ilo, seg.b_slope * delta + ilo, seg.e1, seg.e2),
            bidegree=Bidegree(stem0 + ilo * page.ctx.q, seg.e1 - seg.e2),
            v1_torsion=(ihi - ilo) if certified else (min(ihi, page.v1_cutoff) - ilo),
            certified=certified,
        )

    def counted(self, window) -> tuple:
        """(DimTable, generators, uncertified) on a stem window from one walk
        of the survivors: the dimensions, the Counter{(stem, line, torsion):
        multiplicity} of the certified generators (the form of
        closedforms.einf_closed_counted), and the first generator whose
        torsion is only a lower bound as an EInfClass, or None.  The
        generators are those of classes(window)."""
        page = self.page
        q = page.ctx.q
        dims: dict = {}
        gens: Counter = Counter()
        uncertified = None
        for seg, delta, stem0, hs, ilo, ihi in self._survivors(window):
            line = seg.e1 - seg.e2
            if hs.start == ilo:
                if self._certified(stem0, ihi):
                    gens[(stem0 + ilo * q, line, ihi - ilo)] += 1
                elif uncertified is None:
                    uncertified = self._einf_class(seg, delta, stem0, ilo, ihi)
            # hs is already cut to the window and the cutoff, so each of
            # its heights counts once, at its stem
            for stem in range(stem0 + hs.start * q, stem0 + hs.stop * q, q):
                dims[(stem, line)] = dims.get((stem, line), 0) + 1
        table = DimTable({"p": page.ctx.p, "n": page.n, "k": None}, dims, window)
        return table, gens, uncertified

    def classes(self, window) -> list:
        """E-infinity generators whose bidegree lies in the window: the
        survivor intervals whose bottom height is a surviving height.

        Only heights below the v1 cutoff are reported (the basis contract);
        a chain that runs into the cutoff or the window top gets its length
        so far with certified=False, i.e. "torsion at least this".
        """
        return [
            self._einf_class(seg, delta, stem0, ilo, ihi)
            for seg, delta, stem0, hs, ilo, ihi in self._survivors(window)
            if hs.start == ilo
        ]


def run_to_einf(page: SSPage) -> EInfResult:
    """Run every remaining stage in order and return the survivor structure."""
    for stage in page.stages[len(page.stages_done):]:
        page.run_stage(stage)
    return EInfResult(page)


# -- dense cross-check engine -------------------------------------------


def run_to_einf_dense(page: SSPage, window) -> CyclicDecomposition:
    """Independent subquotient computation of the same E-infinity page.

    Enumerates the page basis explicitly and runs every stage as honest
    linear algebra over F_p (kernels of induced maps modulo accumulated
    boundaries), on sparse vectors indexed by position in each bidegree's
    basis.  It reads the page's band and stage schedule, not its alive
    sets, so the page may be fresh or already run.  It takes every modeled
    class at every height: a subquotient needs every partner of the classes
    at the window stems, where the sweep needs only its readers' cone.
    Each stage image is eliminated once: one VectorSpan.extend on the
    target's boundary span both grows that span and yields the stage kernel
    (_stage_kernel), and a numerator whose image is zero modulo the
    boundaries passes through unchanged.  The generators start from a copy of each boundary span's
    echelon rows.  Only fit for small windows; guards with ResourceError
    before any basis entry.  A v1-image of the survivors that leaves their
    span raises InvariantError.
    """
    ctx = page.ctx
    q = ctx.q
    runs = []  # (stem0, class at height 0, h_lo, h_cap) per ladder
    size = 0
    for seg in chain.from_iterable(page._band().values()):
        for delta in seg.deltas:
            stem0 = seg.K + seg.stem_slope * delta
            h_lo, h_cap = page._heights(stem0)
            size += h_cap - h_lo
            if size > DENSE_MAX_BASIS:
                raise ResourceError("dense engine basis too large; use the ladder engine")
            runs.append((stem0, (seg.a_slope * delta, seg.b_slope * delta, seg.e1, seg.e2), h_lo, h_cap))
    basis, position = _dense_basis(runs, q)

    p = ctx.p
    numerators = {bid: [{i: 1} for i in range(len(classes))] for bid, classes in basis.items()}
    boundaries = {bid: fplinalg.VectorSpan(p, len(classes)) for bid, classes in basis.items()}

    for stage in page.stages:
        on_class = StageMap(page, stage).on_class

        def image_vec(bid, vec):
            """The stage image, with entries not yet reduced mod p."""
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            classes = basis[bid]
            out = {}
            for i, c in vec.items():
                im = on_class(classes[i])
                if im is None:
                    continue
                coeff, tcls = im
                pos = position.get(tcls)
                if pos is not None and pos[0] == tgt_bid:
                    out[pos[1]] = out.get(pos[1], 0) + c * coeff
            return out

        # Each target bidegree has one source bidegree, so its boundary
        # span can grow in place while that source's images are eliminated
        # against it.
        new_numerators = {}
        for bid, nvecs in numerators.items():
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            if not basis.get(tgt_bid) or not nvecs:
                new_numerators[bid] = list(nvecs)
            else:
                new_numerators[bid] = _stage_kernel(p, nvecs, [image_vec(bid, v) for v in nvecs], boundaries[tgt_bid])
        numerators = new_numerators

    def v1_shift(bid, vec):
        """Image of a vector under multiplication by v1, or None at an edge."""
        nxt_bid = (bid[0] + q, bid[1])
        classes = basis[bid]
        shifted = {}
        for i, c in vec.items():
            t, mu, lam, u = classes[i]
            pos = position.get((t + 1, mu + 1, lam, u))
            if pos is None or pos[0] != nxt_bid:
                return nxt_bid, None
            shifted[pos[1]] = c
        return nxt_bid, shifted

    gens = []
    lo, hi = window
    for bid in sorted(basis):
        stem, line = bid
        if not (lo <= stem <= hi):
            continue
        # Generators: survivors modulo boundaries AND modulo v1 times the
        # survivors one v1-step down.  subquotient copies the boundary
        # span's echelon rows; the torsion loop below reads it unchanged.
        prev_bid = (stem - q, line)
        shifts = [sh for v in numerators.get(prev_bid, ()) if (sh := v1_shift(prev_bid, v)[1])]
        try:
            reps = fplinalg.subquotient(numerators[bid], shifts, boundaries[bid])
        except InputError as exc:
            raise InvariantError(f"dense engine at (stem, line) = {bid}: {exc}") from exc
        for rep in reps:
            lead = basis[bid][min(rep)]
            if position[lead][2] >= page.v1_cutoff:
                continue
            # torsion: shift until the class dies (lands in the boundaries)
            r = 0
            vec = rep
            cur_bid = bid
            certified = True
            while vec and not boundaries[cur_bid].contains(vec):
                cur_bid, vec = v1_shift(cur_bid, vec)
                r += 1
                if vec is None:
                    certified = False
                    break
            gens.append(Generator(f"dense:L{page.n}:{Monomial(page.n, page.ell, *lead)}", Bidegree(stem, line), r, certified))
    return CyclicDecomposition(gens)


def _stage_kernel(p: int, nvecs: list, images: list, bspan) -> list:
    """The combinations of nvecs whose images vanish modulo bspan, one per
    free column of the images reduced modulo bspan, in column order; the
    images join bspan in the same pass (VectorSpan.extend), so each is
    eliminated once.

    A column whose image is zero modulo bspan is free with its own unit
    vector as kernel vector, so its numerator passes through as it is.
    """
    kept = []
    for combo in bspan.extend(images):
        if len(combo) == 1:
            (j,) = combo
            kept.append(nvecs[j])
            continue
        acc = {}
        for i, c in combo.items():
            for t, x in nvecs[i].items():
                acc[t] = acc.get(t, 0) + c * x
        kept.append({t: x % p for t, x in acc.items() if x % p})
    return kept


def _dense_basis(runs, q: int) -> tuple:
    """(basis, position) from the ladder runs (stem0, class at height 0,
    h_lo, h_cap): basis maps (stem, line) to its classes (t, mu, lam, u),
    ascending, and position a class to (bidegree, index, height)."""
    basis: dict = {}
    for stem0, (a, b, lam, u), h_lo, h_cap in runs:
        for h in range(h_lo, h_cap):
            basis.setdefault((stem0 + h * q, lam - u), []).append(((a + h, b + h, lam, u), h))
    position: dict = {}
    for bid, entries in basis.items():
        entries.sort()
        position.update((cls, (bid, i, h)) for i, (cls, h) in enumerate(entries))
        basis[bid] = [cls for cls, _h in entries]
    return basis, position
