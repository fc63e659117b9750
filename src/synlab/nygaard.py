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
cancellation along ladders, which this module performs exactly; a dense
matrix-by-matrix implementation of the same homology (run_to_einf_dense)
serves as an independent cross-check on small windows and is exercised by
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain

from . import fplinalg
from .errors import InputError, InvariantError, ResourceError, StateError
from .graded import (
    Bidegree,
    CyclicDecomposition,
    Generator,
    Monomial,
    PrimeContext,
    geo,
    vp,
)

MAX_LADDERS = 5_000_000
DENSE_MAX_BASIS = 80_000


class Variant(str, Enum):
    HFP = "hfp"  # homotopy fixed points: a >= 0, b >= 0
    TATE = "tate"  # t-inverted: a in Z, b >= 0
    MUINV = "muinv"  # mu-inverted: a >= 0, b in Z

    @property
    def t_in_z(self) -> bool:
        return self is Variant.TATE

    @property
    def mu_in_z(self) -> bool:
        return self is Variant.MUINV


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


@dataclass
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


def _base_exponents(variant: Variant, delta: int):
    if variant is Variant.HFP:
        return (max(delta, 0), max(-delta, 0))
    if variant is Variant.TATE:
        return (delta, 0)
    return (0, -delta)


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

    def _stem0(self, e1: int, e2: int, delta: int) -> int:
        p = self.ctx.p
        a0, b0 = _base_exponents(self.variant, delta)
        return 2 * self.ell * p**self.n - 2 * a0 + 2 * p * b0 + (2 * p - 1) * e1 - e2

    def _delta_ranges(self, e1: int, e2: int):
        """Ranges of the delta whose ladder meets the padded window below v_internal.

        A ladder is worth modeling when some height h in [0, v_internal)
        puts its stem inside [lo_pad, hi_pad]; stems climb with h, so that
        means lo_pad - (v_internal-1)*q <= stem0 <= hi_pad.
        """
        q = self.ctx.q
        p = self.ctx.p
        K = self._stem0(e1, e2, 0)
        lo_need = self.lo_pad - (self._v_internal - 1) * q
        hi_need = self.hi_pad
        if self.variant is Variant.TATE:
            # base (delta, 0): stem0 = K - 2*delta, delta in Z
            return (range(-((hi_need - K) // 2), (K - lo_need) // 2 + 1),)
        if self.variant is Variant.MUINV:
            # base (0, -delta): stem0 = K - 2p*delta, delta in Z
            return (range(-((hi_need - K) // (2 * p)), (K - lo_need) // (2 * p) + 1),)
        # HFP: t-side delta >= 0 with stem0 = K - 2*delta, mu-side delta < 0
        # with stem0 = K + 2p*(-delta).
        return (
            range(max(0, -((hi_need - K) // 2)), (K - lo_need) // 2 + 1),
            range(-1, -((hi_need - K) // (2 * p)) - 1, -1),
        )

    def _build(self):
        q = self.ctx.q
        ranges = {(e1, e2): self._delta_ranges(e1, e2) for e1 in (0, 1) for e2 in (0, 1)}
        if sum(len(r) for rs in ranges.values() for r in rs) > MAX_LADDERS:
            raise ResourceError(f"page needs more than {MAX_LADDERS} ladders; shrink the window or cutoff")
        for (e1, e2), rs in ranges.items():
            for delta in chain(*rs):
                a0, b0 = _base_exponents(self.variant, delta)
                stem0 = self._stem0(e1, e2, delta)
                h_lo = max(0, -((stem0 - self.lo_pad) // q))
                h_cap = min((self.hi_pad - stem0) // q + 1, self._v_internal)
                if h_cap > h_lo:
                    self.ladders[(e1, e2, delta)] = Ladder(e1, e2, delta, a0, b0, stem0, h_lo, h_cap, [(h_lo, h_cap)])

    # -- monomial lookups ------------------------------------------------

    def ladder_of(self, m: Monomial):
        if m.level != self.n or m.twist != self.ell:
            raise InputError("monomial belongs to a different page")
        return self.ladders.get((m.lam, m.u_exp, m.t_exp - m.mu_exp))

    def basis_monomials(self, stem: int, line: int):
        """Contract view of the E2 basis at one bidegree.

        Exactly the variant's monomials whose stem lies in the padded window
        and whose v1-divisibility is below the cutoff.
        """
        out = []
        q = self.ctx.q
        for (e1, e2, delta), lad in sorted(self.ladders.items()):
            if e1 - e2 != line:
                continue
            if (stem - lad.stem0) % q:
                continue
            h = (stem - lad.stem0) // q
            if h < 0 or h >= self.v1_cutoff:
                continue
            if not (self.lo_pad <= stem <= self.hi_pad):
                continue
            out.append(lad.monomial(self, h))
        return out

    # -- stages ----------------------------------------------------------

    def stage_image(self, stage: str, lad_key):
        """(coefficient, target ladder key) of the stage map on a whole
        ladder, or None where the map vanishes."""
        par = self.schedule.get(stage)
        if par is None:
            raise InputError(f"stage {stage} not scheduled for n={self.n}")
        k, _G, P = par
        e1, e2, delta = lad_key
        if k is None:
            return (1, (e1, 0, delta + P)) if e2 == 1 else None
        if e1 == 1:
            return None
        p = self.ctx.p
        val = delta + self._twist_coeff
        if vp(p, val) != k:
            return None
        return ((val // p**k) % p, (1, e2, delta + P))

    def run_stage(self, stage: str):
        expected = self.stages[len(self.stages_done)] if len(self.stages_done) < len(self.stages) else None
        if stage != expected:
            raise StateError(f"stage {stage} out of order; expected {expected}")
        _k, G, P = self.schedule[stage]
        # The cuts are applied as they are found.  That equals cutting from
        # the state before the stage, because each ladder is in at most one
        # pair: T_k sources have e1 = 0 and targets e1 = 1, U sources have
        # e2 = 1 and targets e2 = 0, and delta -> delta + P is injective.
        for key, lad in self.ladders.items():
            if not lad.alive:
                continue
            im = self.stage_image(stage, key)
            if im is None:
                continue
            tlad = self.ladders.get(im[1])
            if tlad is None or not tlad.alive:
                continue
            # t^a mu^b goes to t^(a+G+P) mu^(b+G): height h on lad lands at
            # height h + s on tlad.
            s = G + P + lad.base_a - tlad.base_a
            dead = _interval_intersect(lad.alive, _interval_shift(tlad.alive, -s))
            if dead:
                lad.alive = _interval_subtract(lad.alive, dead)
                tlad.alive = _interval_subtract(tlad.alive, _interval_shift(dead, s))
        self.stages_done.append(stage)


class StageMap:
    """The stage differential as a linear map between graded pieces."""

    def __init__(self, page: SSPage, stage: str):
        if stage not in page.schedule:
            raise InputError(f"stage {stage} not scheduled for n={page.n}")
        done = list(page.stages_done)
        expected = page.stages[len(done)] if len(done) < len(page.stages) else None
        if stage != expected:
            raise StateError(f"stage {stage} requested out of order; expected {expected}")
        self.page = page
        self.stage = stage
        _k, G, P = page.schedule[stage]
        self._jump = (G + P, G)  # added to (t_exp, mu_exp)

    def on_monomial(self, m: Monomial):
        """(coefficient, target monomial), or None when the map is zero.

        The map is the page's stage_image on the monomial's ladder.  A
        monomial with p-valuation of (a - b + twist) strictly below the
        stage index was already consumed at an earlier stage; it can only be
        queried here through a class on which the induced differential
        vanishes, so the map returns None there as well.
        """
        im = self.page.stage_image(self.stage, (m.lam, m.u_exp, m.t_exp - m.mu_exp))
        if im is None:
            return None
        coeff, (lam, u_exp, _delta) = im
        dt, dmu = self._jump
        return (coeff, Monomial(m.level, m.twist, m.t_exp + dt, m.mu_exp + dmu, lam, u_exp))

    def matrix(self, stem: int, line: int) -> fplinalg.FpMatrix:
        """Matrix from the (stem, line) basis piece to (stem-1, line+1)."""
        page = self.page
        src = page.basis_monomials(stem, line)
        dst = page.basis_monomials(stem - 1, line + 1)
        index = {m: i for i, m in enumerate(dst)}
        entries = {}
        for j, m in enumerate(src):
            im = self.on_monomial(m)
            if im is None:
                continue
            coeff, tgt = im
            if tgt in index:
                entries[(index[tgt], j)] = coeff % page.ctx.p
        return fplinalg.FpMatrix(page.ctx.p, len(dst), len(src), entries)


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
        for key in sorted(self.page.ladders):
            lad = self.page.ladders[key]
            for ilo, ihi in lad.alive:
                # lo <= stem0 + h*q <= hi, solved for h
                for h in range(max(ilo, -((lad.stem0 - lo) // q)), min(ihi, cut, (hi - lad.stem0) // q + 1)):
                    yield lad, h

    def iter_alive(self, window):
        """(monomial, h) over survivors below the v1 cutoff in a stem window."""
        for lad, h in self._survivors(window):
            yield lad.monomial(self.page, h), h

    def dim_table(self, window, params=None):
        from .graded import DimTable

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
        for key in sorted(self.page.ladders):
            lad = self.page.ladders[key]
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
    """Independent dense-subquotient computation of the same E-infinity page.

    Enumerates the page basis explicitly and runs every stage as honest
    linear algebra over F_p (kernels of induced maps modulo accumulated
    boundaries).  Only fit for small windows; guards with ResourceError.
    """
    ctx = page.ctx
    q = ctx.q
    basis: dict = {}  # (stem, line) -> list of monomials
    position: dict = {}  # monomial -> (bidegree, index)
    total = 0
    for key in sorted(page.ladders):
        lad = page.ladders[key]
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

    def unit_vec(bid, i):
        v = [0] * len(basis[bid])
        v[i] = 1
        return tuple(v)

    numerators = {bid: [unit_vec(bid, i) for i in range(len(monos))] for bid, monos in basis.items()}
    boundaries = {bid: fplinalg.VectorSpan(ctx.p, len(monos)) for bid, monos in basis.items()}

    fresh_page = SSPage(ctx, page.n, page.ell, page.variant, page.window, page.v1_cutoff)
    for stage in fresh_page.stages:
        smap = StageMap(fresh_page, stage)

        def image_vec(bid, vec):
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            out = [0] * len(basis[tgt_bid])
            for i, c in enumerate(vec):
                if not c:
                    continue
                im = smap.on_monomial(basis[bid][i])
                if im is None:
                    continue
                coeff, tmono = im
                if tmono in position:
                    tb, ti = position[tmono]
                    if tb == tgt_bid:
                        out[ti] = (out[ti] + c * coeff) % ctx.p
            return tuple(out)

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
                images = [image_vec(bid, v) for v in nvecs]
                bspan = boundaries[tgt_bid]
                reduced = [bspan.reduce(iv) for iv in images]
                mat = fplinalg.FpMatrix.from_columns(ctx.p, reduced, tgt_dim)
                combos = fplinalg.kernel_basis(mat)
                kept = []
                for combo in combos:
                    acc = [0] * len(basis[bid])
                    for j, c in enumerate(combo):
                        if c:
                            for t in range(len(acc)):
                                acc[t] = (acc[t] + c * nvecs[j][t]) % ctx.p
                    kept.append(tuple(acc))
                new_numerators[bid] = kept
                for red in reduced:
                    if any(red):
                        bspan.add(red)
        numerators = new_numerators
        fresh_page.run_stage(stage)  # advance the schedule guard only

    def v1_shift(bid, vec):
        """Image of a vector under multiplication by v1, or None at an edge."""
        nxt_bid = (bid[0] + q, bid[1])
        shifted = [0] * len(basis.get(nxt_bid, ()))
        for i, c in enumerate(vec):
            if not c:
                continue
            tm = basis[bid][i].v1_times()
            if tm in position and position[tm][0] == nxt_bid:
                shifted[position[tm][1]] = c
            else:
                return nxt_bid, None
        return nxt_bid, tuple(shifted)

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
            if sh is not None and any(sh):
                denom.append(sh)
        try:
            sq = fplinalg.subquotient(numerators[bid], denom, ctx.p, len(basis[bid]))
        except InputError:
            # v1-image can stick out of the cycle span only at window edges
            continue
        for rep in sq.representatives:
            lead = min(i for i, c in enumerate(rep) if c)
            lead_mono = basis[bid][lead]
            if divisibility(page.variant, lead_mono.t_exp, lead_mono.mu_exp) >= page.v1_cutoff:
                continue
            # torsion: shift until the class dies (lands in the boundaries)
            r = 0
            vec = rep
            cur_bid = bid
            certified = True
            while any(vec) and not boundaries[cur_bid].contains(vec):
                cur_bid, vec = v1_shift(cur_bid, vec)
                r += 1
                if vec is None:
                    certified = False
                    break
            gens.append(Generator(f"dense:L{page.n}:{lead_mono}", Bidegree(stem, line), r, certified))
    return CyclicDecomposition(gens)
