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

The ladders of a page are keyed (e1, e2, delta) with delta = a - b.  For
each (e1, e2) the modeled deltas form at most two ranges, one per side of
the fixed-point split (delta < 0 on the mu side, delta >= 0 on the t
side), and on each range the base exponents and the bottom stem are
affine in delta.  The page is built range by range in ascending key
order, so page.ladders iterates sorted and every reader walks it as is.
A stage visits only the ladders its map acts on (SSPage.stage_pairs):
T_k walks the residue class delta = -c (mod p^k) of the e1 = 0 ladders in
steps of p^k and skips delta = -c (mod p^(k+1)), U walks the e2 = 1
ladders.  The dense engine reads the same rule through StageMap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
)

MAX_LADDERS = 5_000_000
DENSE_MAX_BASIS = 80_000


class Variant(str, Enum):
    HFP = "hfp"  # homotopy fixed points: a >= 0, b >= 0
    TATE = "tate"  # t-inverted: a in Z, b >= 0
    MUINV = "muinv"  # mu-inverted: a >= 0, b in Z


def default_v1_cutoff(ctx: PrimeContext, n: int) -> int:
    return 2 * geo(ctx.p, 0, n + 1)


def divisibility(variant: Variant, a: int, b: int) -> int:
    """Largest j with monomial = v1^j * (monomial valid for the variant)."""
    if variant is Variant.HFP:
        return min(a, b)
    if variant is Variant.TATE:
        return b
    return a


# Alive sets are lists of half-open height intervals (lo, hi) that are
# sorted and gapped: lo < hi within an interval and hi < lo' between
# neighbours.  A ladder starts with one interval; subtracting and
# intersecting gapped lists yields gapped lists, so no merge pass is needed.


def _interval_subtract(A, B):
    """A \\ B for sorted gapped interval lists."""
    if not A or not B:
        return list(A)
    out = []
    for lo, hi in A:
        cur = lo
        for blo, bhi in B:
            if bhi <= cur or blo >= hi:
                continue
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


def _interval_intersect(A, B):
    """A & B for sorted gapped interval lists."""
    out = []
    ai = bi = 0
    while ai < len(A) and bi < len(B):
        lo = max(A[ai][0], B[bi][0])
        hi = min(A[ai][1], B[bi][1])
        if lo < hi:
            out.append((lo, hi))
        if A[ai][1] <= B[bi][1]:
            ai += 1
        else:
            bi += 1
    return out


def _interval_shift(A, s):
    return [(lo + s, hi + s) for lo, hi in A]


@dataclass(slots=True)
class Ladder:
    """All v1-multiples of one pure monomial, alive intervals in h."""

    e1: int
    e2: int
    delta: int
    base_a: int
    base_b: int
    stem0: int
    h_lo: int
    h_cap: int  # exclusive
    alive: list

    def monomial(self, page: "SSPage", h: int) -> Monomial:
        return Monomial(page.n, page.ell, self.base_a + h, self.base_b + h, self.e1, self.e2)

    def interval_of(self, h: int):
        for lo, hi in self.alive:
            if lo <= h < hi:
                return (lo, hi)
        return None


class SSPage:
    """One twisted Nygaard page and its staged differential state."""

    def __init__(self, ctx: PrimeContext, n: int, ell: int, variant: Variant, window, v1_cutoff: int | None = None):
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
        self.v1_cutoff = v1_cutoff if v1_cutoff is not None else default_v1_cutoff(ctx, n)
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
        self.ladders: dict = {}
        self._build()

    # -- construction ---------------------------------------------------

    def _delta_ranges(self, e1: int, e2: int):
        """The deltas whose ladder meets the padded window below v_internal,
        as ascending (deltas, a_slope, b_slope, stem_slope) segments.

        On a segment the ladder's base monomial is t^(a_slope*delta)
        mu^(b_slope*delta) and its bottom stem is stem0 = K +
        stem_slope*delta, K the stem of the delta = 0 ladder.  A ladder is
        worth modeling when some height h in [0, v_internal) puts its stem
        inside [lo_pad, hi_pad]; stems climb with h, so that means
        lo_pad - (v_internal-1)*q <= stem0 <= hi_pad.
        """
        q = self.ctx.q
        p = self.ctx.p
        K = self._stem_at_zero(e1, e2)
        lo_need = self.lo_pad - (self._v_internal - 1) * q
        hi_need = self.hi_pad
        # t side: base (delta, 0), stem0 = K - 2*delta; mu side: base
        # (0, -delta), stem0 = K - 2p*delta.
        t_deltas = range(-((hi_need - K) // 2), (K - lo_need) // 2 + 1)
        mu_deltas = range(-((hi_need - K) // (2 * p)), (K - lo_need) // (2 * p) + 1)
        if self.variant is Variant.TATE:
            return ((t_deltas, 1, 0, -2),)
        if self.variant is Variant.MUINV:
            return ((mu_deltas, 0, -1, -2 * p),)
        # HFP: the mu side holds delta < 0, the t side delta >= 0
        return (
            (range(mu_deltas.start, min(mu_deltas.stop, 0)), 0, -1, -2 * p),
            (range(max(t_deltas.start, 0), t_deltas.stop), 1, 0, -2),
        )

    def _stem_at_zero(self, e1: int, e2: int) -> int:
        return 2 * self.ell * self.ctx.p**self.n + (2 * self.ctx.p - 1) * e1 - e2

    def _build(self):
        q = self.ctx.q
        self._ranges = {(e1, e2): self._delta_ranges(e1, e2) for e1 in (0, 1) for e2 in (0, 1)}
        if sum(len(seg[0]) for segs in self._ranges.values() for seg in segs) > MAX_LADDERS:
            raise ResourceError(f"page needs more than {MAX_LADDERS} ladders; shrink the window or cutoff")
        lo_pad, hi_pad, v_internal = self.lo_pad, self.hi_pad, self._v_internal
        ladders = self.ladders
        # (e1, e2) ascending, then each side's deltas ascending: key order
        for (e1, e2), segs in self._ranges.items():
            K = self._stem_at_zero(e1, e2)
            for deltas, a_slope, b_slope, stem_slope in segs:
                for delta in deltas:
                    stem0 = K + stem_slope * delta
                    h_lo = -((stem0 - lo_pad) // q)
                    if h_lo < 0:
                        h_lo = 0
                    h_cap = (hi_pad - stem0) // q + 1
                    if h_cap > v_internal:
                        h_cap = v_internal
                    if h_cap > h_lo:
                        ladders[(e1, e2, delta)] = Ladder(
                            e1, e2, delta, a_slope * delta, b_slope * delta, stem0, h_lo, h_cap, [(h_lo, h_cap)]
                        )

    # -- monomial lookups ------------------------------------------------

    def ladder_of(self, m: Monomial):
        if m.level != self.n or m.twist != self.ell:
            raise InputError("monomial belongs to a different page")
        return self.ladders.get((m.lam, m.u_exp, m.t_exp - m.mu_exp))

    # -- stages ----------------------------------------------------------

    def stage_pairs(self, stage: str):
        """(source key, coefficient, target key) for every ladder of the page
        on which the stage map is nonzero, sources in key order.

        T_k acts on t^a mu^b (e1 = 0) when vp(delta + c) == k, with the
        coefficient (delta + c)/p^k mod p: walk delta = -c (mod p^k) in steps
        of p^k and skip the zero coefficients, i.e. delta = -c (mod p^(k+1)).
        U acts on every e2 = 1 ladder with coefficient 1.  The target key
        need not be a ladder of the page.
        """
        par = self.schedule.get(stage)
        if par is None:
            raise InputError(f"stage {stage} not scheduled for n={self.n}")
        k, _G, P = par
        ladders = self.ladders
        if k is None:
            for e1 in (0, 1):
                for deltas, *_slopes in self._ranges[(e1, 1)]:
                    for delta in deltas:
                        if (e1, 1, delta) in ladders:
                            yield (e1, 1, delta), 1, (e1, 0, delta + P)
            return
        p = self.ctx.p
        c = self._twist_coeff
        step = p**k
        for e2 in (0, 1):
            for deltas, *_slopes in self._ranges[(0, e2)]:
                for delta in range(deltas.start + (-c - deltas.start) % step, deltas.stop, step):
                    coeff = (delta + c) // step % p
                    if coeff and (0, e2, delta) in ladders:
                        yield (0, e2, delta), coeff, (1, e2, delta + P)

    def run_stage(self, stage: str):
        expected = self.stages[len(self.stages_done)] if len(self.stages_done) < len(self.stages) else None
        if stage != expected:
            raise StateError(f"stage {stage} out of order; expected {expected}")
        _k, G, P = self.schedule[stage]
        ladders = self.ladders
        # The cuts are applied as they are found.  That equals cutting from
        # the state before the stage, because each ladder is in at most one
        # pair: T_k sources have e1 = 0 and targets e1 = 1, U sources have
        # e2 = 1 and targets e2 = 0, and delta -> delta + P is injective.
        for src, _coeff, tgt in self.stage_pairs(stage):
            lad = ladders[src]
            A = lad.alive
            if not A:
                continue
            tlad = ladders.get(tgt)
            if tlad is None or not tlad.alive:
                continue
            B = tlad.alive
            # t^a mu^b goes to t^(a+G+P) mu^(b+G): height h on lad lands at
            # height h + s on tlad.
            s = G + P + lad.base_a - tlad.base_a
            if len(A) == 1 and len(B) == 1:
                # One interval each, 95-98 % of the pairs cut on the
                # benchmark workloads: dead = [lo, hi) is cut from both
                # inline.  Through the interval helpers this case takes
                # einf-grid from 1.41 to 1.91 s (medians of 10 runs on a
                # 2-core x86-64 Xeon).
                (alo, ahi), (blo, bhi) = A[0], B[0]
                lo = alo if alo > blo - s else blo - s
                hi = ahi if ahi < bhi - s else bhi - s
                if lo < hi:
                    if alo < lo:
                        lad.alive = [(alo, lo), (hi, ahi)] if hi < ahi else [(alo, lo)]
                    else:
                        lad.alive = [(hi, ahi)] if hi < ahi else []
                    lo += s
                    hi += s
                    if blo < lo:
                        tlad.alive = [(blo, lo), (hi, bhi)] if hi < bhi else [(blo, lo)]
                    else:
                        tlad.alive = [(hi, bhi)] if hi < bhi else []
                continue
            dead = _interval_intersect(A, _interval_shift(B, -s))
            if dead:
                lad.alive = _interval_subtract(A, dead)
                tlad.alive = _interval_subtract(B, _interval_shift(dead, s))
        self.stages_done.append(stage)


class StageMap:
    """The stage differential on the monomials of a page.

    It reads only the page's ladder keys and schedule, never the alive
    sets, so it serves any stage of the schedule in any state of the page.
    """

    def __init__(self, page: SSPage, stage: str):
        if stage not in page.schedule:
            raise InputError(f"stage {stage} not scheduled for n={page.n}")
        self.page = page
        _k, G, P = page.schedule[stage]
        self._jump = (G + P, G)  # added to (t_exp, mu_exp)
        self._images = {src: (coeff, tgt) for src, coeff, tgt in page.stage_pairs(stage)}

    def on_monomial(self, m: Monomial):
        """(coefficient, target monomial), or None when the map is zero.

        The map is the page's stage_pairs entry for the monomial's ladder.  A
        monomial with p-valuation of (a - b + twist) strictly below the
        stage index was already consumed at an earlier stage; it can only be
        queried here through a class on which the induced differential
        vanishes, so the map returns None there as well.  A monomial whose
        ladder is not modeled on the page raises InputError.
        """
        key = (m.lam, m.u_exp, m.t_exp - m.mu_exp)
        if key not in self.page.ladders:
            raise InputError(f"monomial {m} lies on no ladder of the page")
        im = self._images.get(key)
        if im is None:
            return None
        coeff, (lam, u_exp, _delta) = im
        dt, dmu = self._jump
        return (coeff, Monomial(m.level, m.twist, m.t_exp + dt, m.mu_exp + dmu, lam, u_exp))


@dataclass(frozen=True)
class EInfClass:
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

    # aliveness / chain queries, used by the TR kernel oracle

    def alive(self, m: Monomial) -> bool:
        lad = self.page.ladder_of(m)
        if lad is None:
            return False
        h = m.t_exp - lad.base_a
        if h < 0 or h != m.mu_exp - lad.base_b:
            return False
        return lad.interval_of(h) is not None

    def life(self, m: Monomial) -> int:
        """Remaining chain length above m: smallest r with v1^r * m dead."""
        lad = self.page.ladder_of(m)
        if lad is None:
            return 0
        h = m.t_exp - lad.base_a
        iv = lad.interval_of(h)
        if iv is None:
            return 0
        if iv[1] >= lad.h_cap:
            raise InvariantError(f"life of {m} runs into the modeled boundary; enlarge the window")
        return iv[1] - h

    def _survivors(self, window):
        """(ladder, h) over the surviving heights below the v1 cutoff whose
        stem lies in the window, ladders in key order, h ascending."""
        q = self.page.ctx.q
        cut = self.page.v1_cutoff
        lo, hi = window
        for lad in self.page.ladders.values():
            for ilo, ihi in lad.alive:
                # lo <= stem0 + h*q <= hi, solved for h
                for h in range(max(ilo, -((lad.stem0 - lo) // q)), min(ihi, cut, (hi - lad.stem0) // q + 1)):
                    yield lad, h

    def iter_alive(self, window):
        """(monomial, h) over survivors below the v1 cutoff in a stem window."""
        for lad, h in self._survivors(window):
            yield lad.monomial(self.page, h), h

    def dim_table(self, window, params=None):
        counts: dict = {}
        q = self.page.ctx.q
        for lad, h in self._survivors(window):
            key = (lad.stem0 + h * q, lad.e1 - lad.e2)
            counts[key] = counts.get(key, 0) + 1
        return DimTable(params or {"p": self.page.ctx.p, "n": self.page.n, "k": None}, counts, window)

    def assert_pure_chains(self, stem_hi: int) -> None:
        """Survivor chains must be v1-power towers on pure generators.

        Heights double as v1-adic filtrations in the TR kernel oracle, which
        is only right when every surviving interval in the consumed zone
        starts at the bottom of its ladder.  Edge rubble above the cutoff or
        above stem_hi is uncertified by construction and exempt.  If this
        fired, the name-level can/phi formulas would not apply; it is the
        tripwire against misreading the page structure.
        """
        page = self.page
        q = page.ctx.q
        for key, lad in page.ladders.items():
            seen_first = False
            for ilo, _ihi in lad.alive:
                if ilo >= page.v1_cutoff or lad.stem0 + ilo * q > stem_hi:
                    continue
                if ilo != lad.h_lo or seen_first:
                    raise InvariantError(f"page {page.variant} n={page.n}: broken chain on ladder {key}")
                seen_first = True

    def classes(self, window) -> list:
        """E-infinity generators whose bidegree lies in the window.

        Only heights below the v1 cutoff are reported (the basis contract);
        a chain that runs into the cutoff or the window top gets its length
        so far with certified=False, i.e. "torsion at least this".
        """
        out = []
        q = self.page.ctx.q
        cut = self.page.v1_cutoff
        lo, hi = window
        for lad in self.page.ladders.values():
            line = lad.e1 - lad.e2
            for ilo, ihi in lad.alive:
                if ilo >= cut:
                    continue
                stem = lad.stem0 + ilo * q
                if not (lo <= stem <= hi):
                    continue
                certified = ihi < lad.h_cap and ihi <= cut
                out.append(
                    EInfClass(
                        representative=lad.monomial(self.page, ilo),
                        bidegree=Bidegree(stem, line),
                        v1_torsion=(ihi - ilo) if certified else (min(ihi, cut) - ilo),
                        certified=certified,
                    )
                )
        return out


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
    basis.  It reads the page's ladders and stage schedule, not its alive
    sets, so the page may be fresh or already run.  Only fit for small
    windows; guards with ResourceError.  A v1-image of the survivors that
    leaves their span raises InvariantError.
    """
    ctx = page.ctx
    q = ctx.q
    basis: dict = {}  # (stem, line) -> list of monomials
    position: dict = {}  # monomial -> (bidegree, index)
    total = 0
    for lad in page.ladders.values():
        line = lad.e1 - lad.e2
        for h in range(lad.h_lo, lad.h_cap):
            stem = lad.stem0 + h * q
            m = lad.monomial(page, h)
            basis.setdefault((stem, line), []).append(m)
            total += 1
            if total > DENSE_MAX_BASIS:
                raise ResourceError("dense engine basis too large; use the ladder engine")
    for bid, monos in basis.items():
        monos.sort(key=lambda m: (m.t_exp, m.mu_exp))
        for i, m in enumerate(monos):
            position[m] = (bid, i)

    p = ctx.p
    numerators = {bid: [{i: 1} for i in range(len(monos))] for bid, monos in basis.items()}
    boundaries = {bid: fplinalg.VectorSpan(p, len(monos)) for bid, monos in basis.items()}

    for stage in page.stages:
        smap = StageMap(page, stage)

        def image_vec(bid, vec):
            """The stage image, with entries not yet reduced mod p."""
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            monos = basis[bid]
            out = {}
            for i, c in vec.items():
                im = smap.on_monomial(monos[i])
                if im is None:
                    continue
                coeff, tmono = im
                pos = position.get(tmono)
                if pos is not None and pos[0] == tgt_bid:
                    out[pos[1]] = out.get(pos[1], 0) + c * coeff
            return out

        # Each target bidegree has one source bidegree, which reduces its
        # images by the target's boundaries before adding them, so the
        # boundary spans can grow in place.
        new_numerators = {}
        for bid, nvecs in numerators.items():
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            tgt_dim = len(basis.get(tgt_bid, ()))
            if tgt_dim == 0 or not nvecs:
                new_numerators[bid] = list(nvecs)
            else:
                bspan = boundaries[tgt_bid]
                reduced = [bspan.reduce(image_vec(bid, v)) for v in nvecs]
                combos = fplinalg.kernel_basis(fplinalg.FpMatrix.from_columns(p, reduced, tgt_dim))
                kept = []
                for combo in combos:
                    acc = {}
                    for j, c in combo.items():
                        for t, x in nvecs[j].items():
                            acc[t] = acc.get(t, 0) + c * x
                    kept.append({t: x % p for t, x in acc.items() if x % p})
                new_numerators[bid] = kept
                for red in reduced:
                    if red:
                        bspan.add(red)
        numerators = new_numerators

    def v1_shift(bid, vec):
        """Image of a vector under multiplication by v1, or None at an edge."""
        nxt_bid = (bid[0] + q, bid[1])
        monos = basis[bid]
        shifted = {}
        for i, c in vec.items():
            pos = position.get(monos[i].v1_times())
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
        # survivors one v1-step down.
        denom = boundaries[bid].basis()
        prev_bid = (stem - q, line)
        for v in numerators.get(prev_bid, ()):
            _, sh = v1_shift(prev_bid, v)
            if sh:
                denom.append(sh)
        try:
            reps = fplinalg.subquotient(numerators[bid], denom, p, len(basis[bid]))
        except InputError as exc:
            raise InvariantError(f"dense engine at (stem, line) = {bid}: {exc}") from exc
        for rep in reps:
            lead_mono = basis[bid][min(rep)]
            if divisibility(page.variant, lead_mono.t_exp, lead_mono.mu_exp) >= page.v1_cutoff:
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
            gens.append(Generator(f"dense:L{page.n}:{lead_mono}", Bidegree(stem, line), r, certified))
    return CyclicDecomposition(gens)
