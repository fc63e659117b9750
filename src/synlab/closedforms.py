"""Closed-form E-infinity pages and the kernel generator families.

Everything here evaluates displayed formulas; no linear algebra.  Geometric
partial sums follow the empty-sum convention (p + ... + p^k is 0 at k = 0,
1 + ... + p^(n-1) is 0 at n = 0), shared through graded.geo.

The E-infinity pages (einf_closed) are one list of families for all three
variants: l1^e and l1 u^e times t^i or mu^j, the exponent in a union of
residue classes, with torsion constant up to a boost below a cap on the
fixed-point t side.  The variant picks the sides and the exponent range.

Family tags: A..E generate the untruncated kernel, F and G appear only for
a finite truncation level (top-level mu-tails with no Frobenius target).

The index ranges are stated once, as progressions (family_progressions):
per level n, one j range per e for A/B, split at _tilt = p^(n+1); p-1
residue classes mod p^r per (r, e) for D/E, split at _tilt = p^(r+1); the
finite C index set; F/G past _tilt = 0 at the top level of a finite
truncation.  Component exponents, hence stem and torsion, are affine in j
within a progression; the B/E index with _tilt = 0 is a progression of its
own.  Each component's stem is a line in j, solved once per (chain, lam,
u) of a level as its progressions are built (Progression.lines), so a
progression's bidegree check and its stem and torsion cost a few integer
operations at its two ends and two family_torsion calls
(Progression.affine).  Two readers share them: enumerate_families expands
them into elements (for the family check), and tr_closed_decomposition
tallies the closed TR summand as (stem, line, torsion) without building
any element, a twist's elements in one C-level count.  A table builds
each twist's progressions once, counts their lengths for its size guard,
and hands them to the tally (assembly.tc_eps_dims).  At p = 3 and stems
up to 600 (200 twists, 1,696 progressions, 20,352 elements) the build
takes about 4.5 ms, the checks and ends 2.4 ms and the count 5 ms, warm
and in-process (2-core x86-64 Xeon).

Index edge cases the displayed ranges miss are handled explicitly:

  * A/B admit j = 0 at level n = 0 (the suspension generator's chain);
    for n >= 1 a j = 0 class exists only when p | n and is then already the
    delta-component of the level n-1 B-chain, so j >= 1 there.
  * D/E admit j = 0 at level n = 1 (the class se*l1*u_1); for n >= 2 that
    class is the delta-component of the level n-1 E-chain.
  * C is empty at level 0: the level-0 page has no t^i*l1*u classes at all.

The delta-component of B exists exactly when j = p^(n-1)*l*(p-1) is in the
index set, which forces p | n+1; for E it forces r = n and p not | n+1.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from itertools import chain, count, repeat
from typing import NamedTuple

from .errors import InputError, ResourceError
from .graded import Bidegree, Monomial, PrimeContext, geo, monomial_stem, orbit_dims, range_len
from .nygaard import Variant

#: Truncation sentinel: the untruncated (inverse limit) module.
TRUNC_INF = math.inf

# The closed TR tally costs about 1 us and 130-170 B per family element;
# the table printed from it sets the cost: tr --p 3 --ell 1 --mode closed
# --deg-max 60000 (20,034 elements) takes 0.9 s and 100 MB in all, and
# --deg-max 290000 (96,704, just under this cap) 4.2-5.1 s and 407 MB as
# JSON, 2.4 s and 102 MB as CSV (2-core x86-64 Xeon).
MAX_FAMILY_ELEMENTS = 100_000

# A closed E-infinity generator costs about 2.5 us and 140 B as a multiset
# key: einf --p 3 --n 1 --ell 1 --deg-max 10 --mode closed, whose window is
# padded by q*(v1 cutoff - 1), takes 2.3-2.8 s and 150 MB at --v1-cutoff
# 740000 (986,672 generators, just under this cap; 2-core x86-64 Xeon).
MAX_EINF_GENERATORS = 1_000_000


def _einf_refusal(lo: int, hi: int) -> ResourceError:
    return ResourceError(f"stems {lo}..{hi} need more than {MAX_EINF_GENERATORS} E-infinity generators; narrow the window")


class FamilyTag(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"


class FamilyElement(NamedTuple):
    tag: FamilyTag
    n: int
    ell: int
    r: int | None
    index: int  # j for mu-type families, i for C
    e: int  # exterior exponent (lambda1 for A/B/F, u for C/D/E/G)
    components: tuple  # classes (level, t, mu, lam, u), leading component first
    torsion: int
    bid: Bidegree  # the bidegree every component shares

    def label(self) -> str:
        return _label(self.tag, self.n, self.ell, self.r, self.index, self.e)

    def leading(self):
        return self.components[0]


def _label(tag, n, ell, r, index, e) -> str:
    rs = f",r{r}" if r is not None else ""
    return f"{tag.value}[n{n},l{ell}{rs}]j{index}e{e}"


# ---------------------------------------------------------------------------
# E-infinity pages


def residue_range(x_min: int, x_max: int, residue: int, step: int) -> range:
    """x_min <= x <= x_max with x = residue (mod step), ascending."""
    return range(x_min + (residue - x_min) % step, x_max + 1, step)


def einf_closed(ctx: PrimeContext, n: int, ell: int, variant: Variant, window) -> Counter:
    """Counter{(stem, line, torsion): multiplicity} over the generators of
    the stated E-infinity page with stem in the window.

    Each class is l1^lam u^u times t^i (the t side) or mu^j (the mu side).
    With cong = n*l*p^(n-1) and geo(a,b) = p^a + ... + p^b, the families
    are

        class        t side: i           mu side: j          torsion t | mu
        l1^e         i = -cong (p^n)     j = cong (p^n)      geo(0,n-1) | geo(0,n)
        l1 u^e, k<n  vp(i + cong) = k    vp(j - cong) = k    geo(1,k) | geo(1,k+1)

    (for k < n-1, vp(i + cong) = vp(i) since p^(n-1) | cong), and vp = k
    is walked as the p-1 residue classes c*p^k (mod p^(k+1)).  The
    fixed-point page takes the t side for i > 0, its torsion raised by
    max(0, p^n - i) resp. max(0, p^(k+1) - i), and the mu side for j >= 0;
    the Tate page takes the t side over Z, the mu-inverted page the mu side
    over Z.  A torsion <= 0 (an empty sum at k = 0 or n = 0) is no class,
    so such a t side keeps only the fixed-point i < p^n resp. p^(k+1).

    The exponent ranges are counted before any is tallied, and
    ResourceError is raised past MAX_EINF_GENERATORS.
    """
    if n < 0 or ell < 0:
        raise InputError("need n >= 0 and twist >= 0")
    p = ctx.p
    variant = Variant(variant)
    hfp = variant is Variant.HFP
    lo, hi = window
    cong = n * ell * p ** (n - 1) if n >= 1 else 0
    # (lam, u, residues mod step, step, t-side torsion, mu-side torsion)
    families = [(e, 0, (0,), p**n, geo(p, 0, n - 1), geo(p, 0, n)) for e in (0, 1)]
    families += [(1, e, range(p**k, p ** (k + 1), p**k), p ** (k + 1), geo(p, 1, k), geo(p, 1, k + 1))
                 for k in range(n) for e in (0, 1)]
    sides: list = []  # (stem at exponent 0, line, t exponents, mu exponents, step, t-side torsion, mu-side torsion)
    for lam, u, residues, step, t_torsion, mu_torsion in families:
        base = Monomial(n, ell, 0, 0, lam, u).bidegree(ctx).d  # stem base - 2i resp. base + 2p*j
        for res in residues:
            i_range = j_range = range(0)
            if variant is not Variant.MUINV and (t_torsion > 0 or hfp):
                i_min = -((hi - base) // 2)
                i_max = (base - lo) // 2 if t_torsion > 0 else min((base - lo) // 2, step - 1)
                i_range = residue_range(max(i_min, 1) if hfp else i_min, i_max, res - cong, step)
            if variant is not Variant.TATE:
                j_min = -((base - lo) // (2 * p))
                j_range = residue_range(max(j_min, 0) if hfp else j_min, (hi - base) // (2 * p), res + cong, step)
            sides.append((base, lam - u, i_range, j_range, step, t_torsion, mu_torsion))
    if sum(range_len(i) + range_len(j) for _base, _line, i, j, *_rest in sides) > MAX_EINF_GENERATORS:
        raise _einf_refusal(lo, hi)
    out: Counter = Counter()
    for base, line, i_range, j_range, step, t_torsion, mu_torsion in sides:
        out.update((base - 2 * i, line, t_torsion + (max(0, step - i) if hfp else 0)) for i in i_range)
        out.update((base + 2 * p * j, line, mu_torsion) for j in j_range)
    return out


def einf_closed_counted(ctx: PrimeContext, n: int, ell: int, variant: Variant, window, v1_cutoff: int,
                        params: dict | None = None) -> tuple:
    """The closed E-infinity page on a stem window as the oracle page counts
    it: (its DimTable, the einf_closed multiset of its generators with stem
    in the window).

    The page reports only v1-heights below the cutoff, and every closed
    generator is a pure monomial, so v1^j g counts for j < v1_cutoff, and
    generators down to q*(v1_cutoff - 1) stems below the window reach it,
    the reach of EInfResult._survivors.  A refusal names the window asked
    for, not that reach.
    """
    lo, hi = window
    try:
        gens = einf_closed(ctx, n, ell, variant, (lo - ctx.q * (v1_cutoff - 1), hi))
    except ResourceError:
        raise _einf_refusal(lo, hi) from None
    orbits = (((d, s, min(torsion, v1_cutoff)), mult) for (d, s, torsion), mult in gens.items())
    return orbit_dims(ctx.q, window, orbits, params), Counter({k: m for k, m in gens.items() if lo <= k[0] <= hi})


# ---------------------------------------------------------------------------
# Kernel generator families


def _tilt(ctx: PrimeContext, n: int, ell: int, j: int) -> int:
    """Frobenius target t-exponent p^n*l*(p-1) - p*j."""
    p = ctx.p
    return p**n * ell * (p - 1) - p * j


# tag -> (sort block, geo start, tilted): A/B/F are the lambda^e mu^j
# chains of a level n, C the t^i l1 u^e classes, D/E/G the mu^j l1 u^e
# chains of an r; the torsion of B/E grows with the index
_KINDS = {FamilyTag.A: (0, 0, False), FamilyTag.B: (0, 0, True), FamilyTag.F: (0, 0, False),
          FamilyTag.C: (1, None, False),
          FamilyTag.D: (2, 1, False), FamilyTag.E: (2, 1, True), FamilyTag.G: (2, 1, False)}
# the tags a mu-type range splits into: below _tilt = p^(cut+1), up to
# _tilt = 0, and past it at the top level of a finite truncation
_ABF = (FamilyTag.A, FamilyTag.B, FamilyTag.F)
_DEG = (FamilyTag.D, FamilyTag.E, FamilyTag.G)


def family_torsion(tag: FamilyTag, ctx: PrimeContext, n: int, ell: int, r: int | None, index: int, trunc=TRUNC_INF) -> int:
    """Exact v1-torsion order of one family generator, after truncation m.

    The untruncated order, with geo(lo, k) = p^lo + ... + p^k, (lo, k) =
    (0, n) for A/B/F and (1, r) for D/E/G, and i_t = _tilt(index):

        C           p - index
        A, D, F, G  geo(lo, k)
        B, E        geo(lo, k) + p^(k+1) - i_t, for 0 <= i_t < p^(k+1);
                    at i_t = 0 with l = 1, the delta chain's
                    geo(lo, n+1) + p^(n+1)

    A truncation m >= n changes only B/E: m = n leaves geo(lo, k), m = n+1
    caps the untruncated order at geo(lo, n+1).  An m < n refuses, and so
    does a B/E index outside its range.
    """
    if trunc < n:
        raise InputError(f"family at level {n} does not survive truncation at {trunc}")
    p = ctx.p
    _block, lo, tilted = _KINDS[tag]
    if lo is None:  # C
        return p - index
    k = r if lo else n
    base = geo(p, lo, k)
    if not tilted:
        return base
    i_t = _tilt(ctx, n, ell, index)
    if not 0 <= i_t < p ** (k + 1):
        raise InputError(f"index outside the {tag.value} range")
    if trunc == n:
        return base
    full = geo(p, lo, n + 1) + p ** (n + 1) if i_t == 0 and ell == 1 else base + p ** (k + 1) - i_t
    return min(full, geo(p, lo, n + 1)) if trunc == n + 1 else full


def _stem_lines(p: int, ell: int, links: tuple, lam: int, u: int) -> tuple:
    """(intercept, slope) in j of each component's stem, for components
    (level, t0 + t1*j, m1*j, lam, u) of links (level, t0, t1, m1): the stems
    graded.monomial_stem gives at j = 0, and their increase to j = 1.  The
    exponents are not checked here (see Progression.affine)."""
    lines = []
    for level, t0, t1, m1 in links:
        stem = monomial_stem(p, level, ell, t0, 0, lam, u)
        lines.append((stem, monomial_stem(p, level, ell, t0 + t1, m1, lam, u) - stem))
    return tuple(lines)


class Progression(NamedTuple):
    """The family elements (tag, n, r, e, j) for j in js, one kind of chain.

    Component i of element j is the class (level, t0 + t1*j, m1*j, lam, u),
    the monomial se(l*p^level) t^(t0 + t1*j) mu^(m1*j) l1^lam u^u, for
    chain[i] = (level, t0, t1, m1), so every component's stem is affine in
    j, and so is the torsion at truncation trunc.  `lines` holds those
    stems as _stem_lines gives them at the prime the progression was built
    for; _level_progressions solves them once per chain, and a progression
    built without them has affine solve them.
    """

    tag: FamilyTag
    n: int
    ell: int
    r: int | None
    e: int
    js: range
    lam: int
    u: int
    chain: tuple
    trunc: float  # TRUNC_INF or the truncation level
    lines: tuple = ()

    @property
    def line(self) -> int:
        return self.lam - self.u

    def components(self, j: int) -> tuple:
        return tuple((level, t0 + t1 * j, m1 * j, self.lam, self.u) for level, t0, t1, m1 in self.chain)

    def affine(self, ctx: PrimeContext) -> tuple:
        """((stem, torsion) at js[0], their increments per step of js).

        The components share the line lam - u, so they agree in bidegree
        exactly when their stems agree.  Raises InputError unless they do
        at the first and the last j; stems are affine in j, so that covers
        every j.  The torsion is family_torsion's at those two j, and an
        empty js, which has neither, is refused with InputError.  Where
        affine solves the lines itself, it first checks the exponents as
        Monomial checks them.
        """
        tag, n, ell, r, e, js, lam, u, chain, trunc, lines = self
        if not lines:
            if lam not in (0, 1) or u not in (0, 1):
                raise InputError("exterior exponents must be 0 or 1")
            if ell < 0 or any(level < 0 for level, *_ in chain):
                raise InputError("level and twist must be nonnegative")
            lines = _stem_lines(ctx.p, ell, chain, lam, u)
        if not js:
            raise InputError(f"{tag.value} progression at level {n} has no index")
        first, last = js[0], js[-1]
        (c, s), *others = lines
        d0, d1 = c + s * first, c + s * last
        for c, s in others:
            if c + s * first != d0 or c + s * last != d1:
                j = first if any(c + s * first != d0 for c, s in others) else last
                bids = {Monomial(level, ell, *rest).bidegree(ctx) for level, *rest in self.components(j)}
                raise InputError(f"components of {_label(tag, n, ell, r, j, e)} disagree in bidegree: {bids}")
        t0 = family_torsion(tag, ctx, n, ell, r, first, trunc)
        if first == last:
            return (d0, t0), (0, 0)
        steps = len(js) - 1
        return (d0, t0), ((d1 - d0) // steps, (family_torsion(tag, ctx, n, ell, r, last, trunc) - t0) // steps)


def _mu_upper(ctx: PrimeContext, n: int, ell: int, hi: int, e_stem: int) -> int:
    """Largest j with the level-n mu^j class stem within hi."""
    p = ctx.p
    return (hi - 2 * ell * p**n - e_stem) // (2 * p)


def family_progressions(ctx: PrimeContext, ell: int, trunc, hi: int) -> list:
    """The index progressions of every family element with stem <= hi.

    trunc = TRUNC_INF gives families A..E with full torsion; a finite trunc
    m restricts to levels <= m, adjusts torsion (components above level m
    fall away), and adds the mu-tail families F_m and G_m at the top level.
    No (tag, n, r, e, j) lies in two progressions.
    """
    p = ctx.p
    if ell < 1 or ell % p == 0:
        raise InputError("twist must be positive and prime to p")
    if trunc < 0:
        raise InputError("truncation level must be >= 0")
    out: list = []
    n = 0
    while 2 * ell * p**n <= hi and (trunc == TRUNC_INF or n <= trunc):
        out.extend(_level_progressions(ctx, ell, n, trunc, hi))
        n += 1
    return out


def _level_progressions(ctx: PrimeContext, ell: int, n: int, trunc, hi: int) -> list:
    """The progressions of level n.

    A/B (per e): j = cong (mod p^n), split at _tilt = p^(n+1) into A and B.
    C (per e): the i in 1..p-1 with p not | i + cong, around the one
    excluded i.  D/E (per r, e): the p-1 classes j = cong + c*p^(r-1)
    (mod p^r), c = 1..p-1, i.e. vp(j - cong) = r - 1, split at
    _tilt = p^(r+1) into D and E.  Every mu-type range stops at _tilt >= 0;
    at the top level of a finite truncation the indices past it are F/G.
    The B/E index with _tilt = 0, whose chain has a delta component, is a
    progression of its own.  Each mu-type chain's stem lines are solved
    once per (lam, u), a delta chain's where it occurs.
    """
    p = ctx.p
    out: list = []
    make = Progression._make
    cong = n * ell * p ** (n - 1) if n >= 1 else 0
    top_level = trunc != TRUNC_INF and n == trunc
    i_t0 = _tilt(ctx, n, ell, 0)  # _tilt(j) = i_t0 - p*j
    j_top = i_t0 // p  # the last j with _tilt >= 0
    j_delta = j_top if p * j_top == i_t0 else None  # the j with _tilt = 0

    # mu^j at level n, its Frobenius target t^(_tilt) at n+1 and, when
    # _tilt = 0, t^(p^(n+1) l (p-1)) at n+2, cut at the truncation
    links = ((n, 0, 0, 1), (n + 1, i_t0, -p, 0), (n + 2, p ** (n + 1) * ell * (p - 1), 0, 0))
    kept = 3 if trunc == TRUNC_INF else trunc - n + 1  # the links at levels <= trunc
    lead, plain, delta = links[:1], links[:min(2, kept)], links[:min(3, kept)]
    solved: dict = {}  # (lam, u) -> the stem lines of plain

    def split(tags, r, e, lam, u, cut, js):
        """js split at _tilt = p^(cut+1) and at _tilt = 0 into tags."""
        lines = solved.get((lam, u)) or solved.setdefault((lam, u), _stem_lines(p, ell, plain, lam, u))
        start, step = js.start, js.step
        k_low = max(0, ((i_t0 - p ** (cut + 1)) // p - start) // step + 1)
        k_high = max(0, (j_top - start) // step + 1)
        if k_low:
            out.append(make((tags[0], n, ell, r, e, js[:k_low], lam, u, plain, trunc, lines)))
        high = js[k_low:k_high]
        if high and high[-1] == j_delta:
            if len(high) > 1:
                out.append(make((tags[1], n, ell, r, e, high[:-1], lam, u, plain, trunc, lines)))
            out.append(make((tags[1], n, ell, r, e, high[-1:], lam, u, delta, trunc, _stem_lines(p, ell, delta, lam, u))))
        elif high:
            out.append(make((tags[1], n, ell, r, e, high, lam, u, plain, trunc, lines)))
        if top_level and k_high < len(js):  # F/G: no Frobenius target to match
            out.append(make((tags[2], n, ell, r, e, js[k_high:], lam, u, lead, trunc, lines[:1])))

    # families A, B, F: lambda^e mu^j chains
    for e in (0, 1):
        j_max = _mu_upper(ctx, n, ell, hi, e * (2 * p - 1))
        js = residue_range(0 if n == 0 else 1, j_max, cong, p**n)
        if js:
            split(_ABF, None, e, e, 0, n, js)

    if n == 0:  # no C class and no r at level 0
        return out

    # family C: t^i lambda1 u^e at level n alone
    skip = -cong % p
    c_chain = ((n, 0, 1, 0),)
    for e in (0, 1):
        i_min = max(1, -((hi - 2 * ell * p**n - (2 * p - 1) + e) // 2))  # stem <= hi
        lines = _stem_lines(p, ell, c_chain, 1, e)
        for i_range in ((range(i_min, skip), range(max(i_min, skip + 1), p)) if skip else (range(i_min, p),)):
            if i_range:
                out.append(make((FamilyTag.C, n, ell, None, e, i_range, 1, e, c_chain, trunc, lines)))

    # families D, E, G: mu^j lambda1 u^e chains, 1 <= r <= n
    for r in range(1, n + 1):
        for e in (0, 1):
            j_max = _mu_upper(ctx, n, ell, hi, (2 * p - 1) - e)
            for c in range(1, p):
                js = residue_range(0 if n == 1 else 1, j_max, cong + c * p ** (r - 1), p**r)
                if js:
                    split(_DEG, r, e, 1, e, r, js)
    return out


def enumerate_families(ctx: PrimeContext, ell: int, trunc=TRUNC_INF, window=(0, 200)) -> list:
    """All family elements with bidegree in the window, by level, then
    A/B/F, C, D/E/G, then r, e and index ascending.

    Each element is expanded from its progression; its bidegree is the one
    its components share, read off Progression.affine, and its torsion is
    family_torsion's.
    """
    lo, hi = window
    out: list = []
    for prog in family_progressions(ctx, ell, trunc, hi):
        (d0, _t0), (dd, _dt) = prog.affine(ctx)
        for k, j in enumerate(prog.js):
            d = d0 + k * dd
            if lo <= d:
                torsion = family_torsion(prog.tag, ctx, prog.n, ell, prog.r, j, trunc)
                out.append(FamilyElement(prog.tag, prog.n, ell, prog.r, j, prog.e, prog.components(j), torsion,
                                         Bidegree(d, prog.line)))
    out.sort(key=lambda el: (el.n, _KINDS[el.tag][0], el.r or 0, el.e, el.index))
    return out


def tr_closed_decomposition(ctx: PrimeContext, ell: int, trunc=TRUNC_INF, hi: int = 200,
                            out: Counter | None = None, progressions: list | None = None) -> Counter:
    """The closed twist-l TR summand at truncation trunc: Counter{(stem,
    line, torsion): multiplicity} over enumerate_families(ctx, ell, trunc,
    (0, hi)), read off the progressions without building any element.

    The tally goes into `out` when it is given, so a caller summing twists
    adds each one in place, and into a fresh Counter otherwise; the Counter
    tallied into is returned.  `progressions`, when given, must be
    family_progressions(ctx, ell, trunc, hi), which a caller that has
    already built them passes on instead of having them built again.  Each
    progression costs a few integer operations on the stem lines solved
    with it and two family_torsion calls (Progression.affine), and the
    elements of all of them go into the Counter in one C-level count.
    Refuses with ResourceError past
    MAX_FAMILY_ELEMENTS elements, counted from the progressions before any
    is tallied, so a refusal leaves `out` as it was."""
    progs = family_progressions(ctx, ell, trunc, hi) if progressions is None else progressions
    if sum(len(prog.js) for prog in progs) > MAX_FAMILY_ELEMENTS:
        raise ResourceError(f"stems up to {hi} need more than {MAX_FAMILY_ELEMENTS} family elements; lower the window top")
    if out is None:
        out = Counter()
    out.update(chain.from_iterable(_element_keys(ctx, progs)))
    return out


def _element_keys(ctx: PrimeContext, progs: list):
    """Per progression, the (stem, line, torsion) of its elements, as a
    C-level stream off Progression.affine."""
    for prog in progs:
        (d0, t0), (dd, dt) = prog.affine(ctx)
        yield zip(count(d0, dd), repeat(prog.line, len(prog.js)), count(t0, dt))


def repeated_leading(elems):
    """The first leading class repeated across family elements, or None."""
    seen = set()
    for el in elems:
        key = el.leading()
        if key in seen:
            return key
        seen.add(key)
    return None
