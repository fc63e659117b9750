"""Closed-form E-infinity pages and the kernel generator families.

Everything here evaluates displayed formulas; no linear algebra.  Geometric
partial sums follow the empty-sum convention (p + ... + p^k is 0 at k = 0,
1 + ... + p^(n-1) is 0 at n = 0), shared through graded.geo.

Family tags: A..E generate the untruncated kernel, F and G appear only for
a finite truncation level (top-level mu-tails with no Frobenius target).
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
from dataclasses import dataclass
from enum import Enum

from .errors import InputError
from .graded import (
    TORSION_FREE,
    Bidegree,
    CyclicDecomposition,
    Generator,
    Monomial,
    PrimeContext,
    geo,
    vp,
)
from .nygaard import Variant

#: Truncation sentinel: the untruncated (inverse limit) module.
TRUNC_INF = math.inf


class FamilyTag(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"


@dataclass(frozen=True)
class FamilyElement:
    tag: FamilyTag
    n: int
    ell: int
    r: int | None
    index: int  # j for mu-type families, i for C
    e: int  # exterior exponent (lambda1 for A/B/F, u for C/D/E/G)
    components: tuple  # ((level, Monomial), ...), leading component first
    torsion: int
    bid: Bidegree  # the bidegree every component shares, checked by build()

    @classmethod
    def build(cls, ctx: PrimeContext, tag, n, ell, r, index, e, components, torsion) -> "FamilyElement":
        """The element, with its bidegree computed once from the components."""
        bids = {m.bidegree(ctx) for (_lvl, m) in components}
        if len(bids) != 1:
            el = cls(tag, n, ell, r, index, e, components, torsion, None)
            raise InputError(f"components of {el.label()} disagree in bidegree: {bids}")
        return cls(tag, n, ell, r, index, e, components, torsion, next(iter(bids)))

    def bidegree(self, ctx: PrimeContext) -> Bidegree:
        """The shared bidegree of the components (computed by build())."""
        return self.bid

    def label(self) -> str:
        r = f",r{self.r}" if self.r is not None else ""
        return f"{self.tag.value}[n{self.n},l{self.ell}{r}]j{self.index}e{self.e}"

    def leading(self):
        return self.components[0]


# ---------------------------------------------------------------------------
# E-infinity pages


def einf_closed(ctx: PrimeContext, n: int, ell: int, variant: Variant, window) -> CyclicDecomposition:
    """Generators of the stated E-infinity page with bidegree in the window."""
    if n < 0 or ell < 0:
        raise InputError("need n >= 0 and twist >= 0")
    p = ctx.p
    variant = Variant(variant)
    lo, hi = window
    gens: list = []

    def emit(t_exp, mu_exp, lam, u_exp, torsion):
        if torsion <= 0:
            return
        m = Monomial(n, ell, t_exp, mu_exp, lam, u_exp)
        bid = m.bidegree(ctx)
        if lo <= bid.d <= hi:
            gens.append(Generator(f"L{n}:{m}", bid, torsion))

    def stem_of(t_exp, mu_exp, lam, u_exp):
        return Monomial(n, ell, t_exp, mu_exp, lam, u_exp).bidegree(ctx).d

    def t_range(lam, u_exp):
        """t-exponents (sign per variant) whose class stem is in the window."""
        base = stem_of(0, 0, lam, u_exp)  # stem(i) = base - 2i
        i_min = -((hi - base) // 2)
        i_max = (base - lo) // 2
        if not variant.t_in_z:
            i_min = max(i_min, 0)
        return range(i_min, i_max + 1)

    def mu_range(lam, u_exp):
        base = stem_of(0, 0, lam, u_exp)  # stem(j) = base + 2p*j
        j_min = -((base - lo) // (2 * p)) if variant.mu_in_z else 0
        j_max = (hi - base) // (2 * p)
        return range(j_min, j_max + 1)

    cong = n * ell * p ** (n - 1) if n >= 1 else 0

    if variant is Variant.HFP:
        for e1 in (0, 1):
            for i in t_range(e1, 0):
                if i <= 0 or (i + cong) % p**n:
                    continue
                if i >= p**n:
                    emit(i, 0, e1, 0, geo(p, 0, n - 1))
                else:
                    emit(i, 0, e1, 0, geo(p, 0, n - 1) + p**n - i)
            for j in mu_range(e1, 0):
                if j >= 0 and (j - cong) % p**n == 0:
                    emit(0, j, e1, 0, geo(p, 0, n))
        for e2 in (0, 1):
            for k in range(1, n - 1):
                for i in t_range(1, e2):
                    if i > p ** (k + 1) and vp(p, i) == k:
                        emit(i, 0, 1, e2, geo(p, 1, k))
            for k in range(0, n - 1):
                for i0 in range(1, p):
                    emit(p**k * i0, 0, 1, e2, geo(p, 1, k) + p**k * (p - i0))
                for j in mu_range(1, e2):
                    if j > 0 and vp(p, j) == k:
                        emit(0, j, 1, e2, geo(p, 1, k + 1))
            if n >= 1:
                for i in t_range(1, e2):
                    if i >= p**n and vp(p, i + cong) == n - 1:
                        emit(i, 0, 1, e2, geo(p, 1, n - 1))
                for i0 in range(1, p):
                    if vp(p, p ** (n - 1) * i0 + cong) == n - 1:
                        emit(p ** (n - 1) * i0, 0, 1, e2, geo(p, 1, n - 1) + p ** (n - 1) * (p - i0))
                for j in mu_range(1, e2):
                    if j >= 0 and vp(p, j - cong) == n - 1:
                        emit(0, j, 1, e2, geo(p, 1, n))
    elif variant is Variant.TATE:
        for e1 in (0, 1):
            for i in t_range(e1, 0):
                if (i + cong) % p**n == 0:
                    emit(i, 0, e1, 0, geo(p, 0, n - 1))
        for e2 in (0, 1):
            for k in range(1, n - 1):
                for i in t_range(1, e2):
                    if i != 0 and vp(p, i) == k:
                        emit(i, 0, 1, e2, geo(p, 1, k))
            if n >= 1:
                for i in t_range(1, e2):
                    if vp(p, i + cong) == n - 1:
                        emit(i, 0, 1, e2, geo(p, 1, n - 1))
    else:  # MUINV
        for e1 in (0, 1):
            for j in mu_range(e1, 0):
                if (j - cong) % p**n == 0:
                    emit(0, j, e1, 0, geo(p, 0, n))
        for e2 in (0, 1):
            for k in range(0, n - 1):
                for j in mu_range(1, e2):
                    if j != 0 and vp(p, j) == k:
                        emit(0, j, 1, e2, geo(p, 1, k + 1))
            if n >= 1:
                for j in mu_range(1, e2):
                    if vp(p, j - cong) == n - 1:
                        emit(0, j, 1, e2, geo(p, 1, n))
    return CyclicDecomposition(gens)


# ---------------------------------------------------------------------------
# Kernel generator families


def _tilt(ctx: PrimeContext, n: int, ell: int, j: int) -> int:
    """Frobenius target t-exponent p^n*l*(p-1) - p*j."""
    p = ctx.p
    return p**n * ell * (p - 1) - p * j


def family_torsion(tag: FamilyTag, ctx: PrimeContext, n: int, ell: int, r: int | None, index: int, trunc=TRUNC_INF) -> int:
    """Exact v1-torsion order of one family generator, after truncation."""
    p = ctx.p
    tag = FamilyTag(tag)
    m = trunc
    if m != TRUNC_INF and m < n:
        raise InputError(f"family at level {n} does not survive truncation at {m}")
    if tag is FamilyTag.A:
        return geo(p, 0, n)
    if tag is FamilyTag.C:
        return p - index
    if tag is FamilyTag.D:
        return geo(p, 1, r)
    if tag is FamilyTag.F:
        return geo(p, 0, n)
    if tag is FamilyTag.G:
        return geo(p, 1, r)
    i_t = _tilt(ctx, n, ell, index)
    if tag is FamilyTag.B:
        if not 0 <= i_t < p ** (n + 1):
            raise InputError("index outside the B range")
        full = geo(p, 0, n) + (p ** (n + 1) - i_t)
        if i_t == 0 and ell == 1:
            full = geo(p, 0, n + 1) + p ** (n + 1)
        if m == n:
            return geo(p, 0, n)
        if m == n + 1:
            return min(full, geo(p, 0, n + 1))
        return full
    if tag is FamilyTag.E:
        if not 0 <= i_t < p ** (r + 1):
            raise InputError("index outside the E range")
        full = geo(p, 1, r) + (p ** (r + 1) - i_t)
        if i_t == 0 and ell == 1:
            full = geo(p, 1, n + 1) + p ** (n + 1)
        if m == n:
            return geo(p, 1, r)
        if m == n + 1:
            return min(full, geo(p, 1, n + 1))
        return full
    raise InputError(f"unknown tag {tag}")


def _mu_upper(ctx: PrimeContext, n: int, ell: int, hi: int, e_stem: int) -> int:
    """Largest j with the level-n mu^j class stem within hi."""
    p = ctx.p
    return (hi - 2 * ell * p**n - e_stem) // (2 * p)


def enumerate_families(ctx: PrimeContext, ell: int, trunc=TRUNC_INF, window=(0, 200)) -> list:
    """All family elements with bidegree in the window.

    trunc = TRUNC_INF gives families A..E with full torsion; a finite trunc
    m restricts to levels <= m, adjusts torsion (components above level m
    fall away), and adds the mu-tail families F_m and G_m at the top level.
    """
    p = ctx.p
    if ell < 1 or ell % p == 0:
        raise InputError("twist must be positive and prime to p")
    lo, hi = window
    out: list = []
    n = 0
    while 2 * ell * p**n <= hi:
        if trunc == TRUNC_INF or n <= trunc:
            out.extend(_families_at_level(ctx, ell, n, trunc, window))
        n += 1
    return out


def _families_at_level(ctx: PrimeContext, ell: int, n: int, trunc, window) -> list:
    """The family elements of level n with stem in the window, in a fixed order.

    Only the indices a family can take are visited: j = cong (mod p^n) for
    A/B/F, and j = cong (mod p^(r-1)) for D/E/G, of which those with
    vp(j - cong) = r - 1 are kept.
    """
    p = ctx.p
    lo, hi = window
    out: list = []
    cong = n * ell * p ** (n - 1) if n >= 1 else 0
    top_level = trunc != TRUNC_INF and n == trunc

    def mono(level, t_exp, mu_exp, lam, u_exp):
        return Monomial(level, ell, t_exp, mu_exp, lam, u_exp)

    def keep(tag, r, index, e, comps):
        elem = FamilyElement.build(ctx, tag, n, ell, r, index, e, tuple(comps),
                                   family_torsion(tag, ctx, n, ell, r, index, trunc))
        if lo <= elem.bid.d <= hi:
            out.append(elem)

    def residue_range(j_min, j_max, step):
        """j_min <= j <= j_max with j = cong (mod step), ascending."""
        return range(j_min + (cong - j_min) % step, j_max + 1, step)

    # families A and B: lambda^e (mu^j at level n  +  t^(tilt) at level n+1
    #                             [+ delta: t^(p^(n+1) l (p-1)) at level n+2])
    j_min = 0 if n == 0 else 1
    for e in (0, 1):
        e_stem = e * (2 * p - 1)
        for j in residue_range(j_min, _mu_upper(ctx, n, ell, hi, e_stem), p**n):
            i_t = _tilt(ctx, n, ell, j)
            if i_t < 0:
                if top_level:  # family F: no Frobenius target to match
                    keep(FamilyTag.F, None, j, e, [(n, mono(n, 0, j, e, 0))])
                continue
            comps = [(n, mono(n, 0, j, e, 0))]
            if trunc == TRUNC_INF or n + 1 <= trunc:
                comps.append((n + 1, mono(n + 1, i_t, 0, e, 0)))
            if i_t == 0 and (trunc == TRUNC_INF or n + 2 <= trunc):
                comps.append((n + 2, mono(n + 2, p ** (n + 1) * ell * (p - 1), 0, e, 0)))
            keep(FamilyTag.A if i_t >= p ** (n + 1) else FamilyTag.B, None, j, e, comps)

    # family C: t^i lambda1 u^e at level n alone (empty at level 0)
    if n >= 1:
        for e in (0, 1):
            for i in range(1, p):
                if vp(p, i + cong) == 0:
                    keep(FamilyTag.C, None, i, e, [(n, mono(n, i, 0, 1, e))])

    # families D, E, G: mu^j lambda1 u^e chains, 1 <= r <= n
    j_min_u = 0 if n == 1 else 1
    for r in range(1, n + 1):
        for e in (0, 1):
            e_stem = (2 * p - 1) - e
            for j in residue_range(j_min_u, _mu_upper(ctx, n, ell, hi, e_stem), p ** (r - 1)):
                if vp(p, j - cong) != r - 1:
                    continue
                i_t = _tilt(ctx, n, ell, j)
                if i_t < 0:
                    if top_level:  # family G
                        keep(FamilyTag.G, r, j, e, [(n, mono(n, 0, j, 1, e))])
                    continue
                comps = [(n, mono(n, 0, j, 1, e))]
                if trunc == TRUNC_INF or n + 1 <= trunc:
                    comps.append((n + 1, mono(n + 1, i_t, 0, 1, e)))
                if i_t == 0 and (trunc == TRUNC_INF or n + 2 <= trunc):
                    comps.append((n + 2, mono(n + 2, p ** (n + 1) * ell * (p - 1), 0, 1, e)))
                keep(FamilyTag.D if i_t >= p ** (r + 1) else FamilyTag.E, r, j, e, comps)
    return out


def family_count(ctx: PrimeContext, ell: int, hi: int) -> int:
    """len(enumerate_families(ctx, ell, TRUNC_INF, (0, hi))), counted
    without building any element.

    Counts the indices _families_at_level keeps at each level n with
    2*l*p^n <= hi: for A/B the j = cong (mod p^n), for D/E the j = cong
    (mod p^(r-1)) with vp(j - cong) = r - 1, each up to the mu^j stem bound
    and the cut _tilt >= 0, i.e. p*j <= p^n*l*(p-1); and the C indices
    with stem <= hi.  Every family stem is at least 2l, so any window
    starting at or below 0 gives the same count.
    """
    p = ctx.p
    total = 0
    n = 0
    while 2 * ell * p**n <= hi:
        cong = n * ell * p ** (n - 1) if n >= 1 else 0
        j_tilt = p**n * ell * (p - 1) // p

        def count(j_min, e_stem, step):
            """j_min <= j <= the level's bound with j = cong (mod step)."""
            j_max = min(_mu_upper(ctx, n, ell, hi, e_stem), j_tilt)
            return len(range(j_min + (cong - j_min) % step, j_max + 1, step))

        j_min = 0 if n == 0 else 1
        total += sum(count(j_min, e * (2 * p - 1), p**n) for e in (0, 1))
        if n >= 1:  # C: t^i lambda1 u^e, stem 2*l*p^n - 2i + 2p - 1 - e
            total += sum(
                1 for i in range(1, p) for e in (0, 1) if (i + cong) % p and 2 * ell * p**n - 2 * i + 2 * p - 1 - e <= hi
            )
        j_min_u = 0 if n == 1 else 1
        for r in range(1, n + 1):
            for e in (0, 1):
                e_stem = (2 * p - 1) - e
                total += count(j_min_u, e_stem, p ** (r - 1)) - count(j_min_u, e_stem, p**r)
        n += 1
    return total


def tr_closed_decomposition(ctx: PrimeContext, ell: int, trunc=TRUNC_INF, window=(0, 200)) -> CyclicDecomposition:
    elems = enumerate_families(ctx, ell, trunc, window)
    gens = [Generator(el.label(), el.bid, el.torsion) for el in elems]
    return CyclicDecomposition(gens)


def leading_disjoint(elems) -> bool:
    """No (level, leading monomial) pair repeats across family elements."""
    seen = set()
    for el in elems:
        key = el.leading()
        if key in seen:
            return False
        seen.add(key)
    return True
