"""Final dimension tables: TC(Z_p<eps>)/p, syntomic cohomology of Z/p^n mod
(p, v1^k), TC and K-theory mod (p, v1^k), and the Betti truncation bound.

The identification license: for k <= p^(n-2) the mod (p, v1^k) syntomic
cohomology of Z/p^n equals that of the free animated ring on a degree-1
class, which splits as TC(Z_p) plus one twisted TR summand per positive
twist prime to p.  A twist-l summand is concentrated in stems >= 2l-1, so
a finite window only sees finitely many of them.

Quotient bookkeeping for M/v1^k, per cyclic summand of torsion r:
reduction classes v1^j g (j < min(r,k)) stay at their native (stem, line);
kernel classes v1^j g (r-k <= j < r) reappear shifted by (q*k + 1, +1).
The +1 line shift keeps every reported class on lines -1..2 and realizes
the weight bookkeeping of the quotient; see the decisions ledger for the
sign discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closedforms import TRUNC_INF
from .errors import InputError
from .graded import (
    TORSION_FREE,
    Bidegree,
    CyclicDecomposition,
    DimTable,
    Generator,
    PrimeContext,
    geo,
)
from .trkernel import tr_gr_module


def tc_zp_dims(ctx: PrimeContext, window) -> CyclicDecomposition:
    """gr TC(Z_p)/p: a free F_p[v1]-module on p + 3 generators."""
    p = ctx.p
    gens = [
        Generator("Zp:1", Bidegree(0, 0), TORSION_FREE),
        Generator("Zp:l1", Bidegree(2 * p - 1, 1), TORSION_FREE),
        Generator("Zp:del", Bidegree(-1, 1), TORSION_FREE),
        Generator("Zp:del*l1", Bidegree(2 * p - 2, 2), TORSION_FREE),
    ]
    for i in range(1, p):
        gens.append(Generator(f"Zp:t^{i}*l1", Bidegree(2 * p - 1 - 2 * i, 1), TORSION_FREE))
    return CyclicDecomposition(gens)


def twist_bound(window_top: int) -> int:
    """Largest twist whose TR summand reaches the window (stems >= 2l-1)."""
    return max(-((window_top + 1) // -2), 0)


def tc_eps_dims(ctx: PrimeContext, window, mode: str = "closed") -> CyclicDecomposition:
    """gr TC of the square-zero extension: TC(Z_p) plus twisted TR summands.

    The generators of tc_zp_dims come first, then those of each twist-l TR
    summand (l prime to p, ascending) with labels prefixed "l{l}:".  The
    list is gathered first and wrapped once, so the duplicate-label check
    runs once and the merge stays linear in the number of generators.
    Mode "both" raises VerificationFailure on the first twist whose oracle
    and closed form disagree.
    """
    lo, hi = window
    gens = list(tc_zp_dims(ctx, window))
    for ell in range(1, twist_bound(hi) + 1):
        if ell % ctx.p == 0:
            continue
        tr = tr_gr_module(ctx, ell, TRUNC_INF, (0, hi), mode=mode)
        if mode == "both":
            tr.comparison.require_ok(f"twist l={ell}")
        gens.extend(Generator(f"l{ell}:{g.label}", g.bidegree, g.torsion, g.certified) for g in tr.decomposition)
    return CyclicDecomposition(gens)


@dataclass(frozen=True)
class AssemblyParams:
    p: int
    n: int
    k: int
    window: tuple

    def __post_init__(self):
        ctx = PrimeContext(self.p)  # validates primality
        if self.n < 2:
            raise InputError("need n >= 2")
        if self.k < 1:
            raise InputError("need k >= 1")
        if self.p == 2 and self.k % 4:
            raise InputError("at p = 2 the quotient needs 4 | k (v1^4 self map)")

    @property
    def ctx(self) -> PrimeContext:
        return PrimeContext(self.p)

    @property
    def p2_mode(self) -> bool:
        return self.p == 2

    def require_identification(self):
        if self.k > self.p ** (self.n - 2):
            raise InputError(
                f"k={self.k} exceeds p^(n-2)={self.p ** (self.n - 2)}: "
                "outside the range where Z/p^n matches the square-zero model"
            )


def syntomic_dims(params: AssemblyParams, mode: str = "closed") -> DimTable:
    """Mod (p, v1^k) syntomic cohomology of Z/p^n as a (stem, line) table."""
    params.require_identification()
    ctx = params.ctx
    q = ctx.q
    k = params.k
    lo, hi = params.window
    # every generator sits at stem >= -1, so reaching stem hi needs nothing
    # below; torsion must be exact for all generators with stem <= hi.
    M = tc_eps_dims(ctx, (min(lo, -1), hi), mode=mode)
    entries: dict = {}

    def add(stem, line):
        if lo <= stem <= hi:
            entries[(stem, line)] = entries.get((stem, line), 0) + 1

    for g in M:
        d, s = g.bidegree
        r = g.torsion
        reduction_top = k if r == TORSION_FREE else min(int(r), k)
        for j in range(reduction_top):
            add(d + j * q, s)
        if r != TORSION_FREE:
            for j in range(max(int(r) - k, 0), int(r)):
                add(d + j * q + q * k + 1, s + 1)
    notes = {"assoc_graded": True} if params.p2_mode else {}
    return DimTable({"p": params.p, "n": params.n, "k": k}, entries, params.window, notes)


def tc_mod_dims(params: AssemblyParams, mode: str = "closed") -> DimTable:
    """pi_* TC(Z/p^n)/(p, v1^k): syntomic table summed over lines.

    The motivic spectral sequence degenerates and (p odd) carries no hidden
    v1-extensions, so homotopy dimensions are column sums.  At p = 2 the
    table is the associated graded of a filtration, and is flagged as such.
    """
    syn = syntomic_dims(params, mode=mode)
    entries: dict = {}
    for (d, _s), c in syn.entries.items():
        entries[(d, 0)] = entries.get((d, 0), 0) + c
    notes = dict(syn.notes)
    notes["table"] = "tc"
    return DimTable(dict(syn.params), entries, syn.window, notes)


def k_mod_dims(params: AssemblyParams, mode: str = "closed") -> DimTable:
    """pi_* K(Z/p^n)/(p, v1^k) from TC by the linearization exact sequence.

    Refuses k = p^(n-2): whether the boundary class `del` is v1^(p^(n-2))-
    torsion is open, so the correction at stem q*k - 1 would be a guess.
    """
    if params.k > params.p ** (params.n - 2) - 1:
        raise InputError(
            f"k={params.k} needs k <= p^(n-2)-1: at k = p^(n-2) the v1-torsion "
            "order of the class `del` is not known"
        )
    tc = tc_mod_dims(params, mode=mode)
    q = params.ctx.q
    entries = dict(tc.entries)
    lo, hi = params.window

    def bump(stem, amount):
        if lo <= stem <= hi:
            key = (stem, 0)
            entries[key] = entries.get(key, 0) + amount
            if entries[key] < 0:
                raise InputError(f"K-theory correction underflow at stem {stem}")
            if not entries[key]:
                del entries[key]

    bump(-1, -1)  # del maps to zero in K
    bump(q * params.k - 1, +1)  # v1^k del becomes alive
    notes = dict(tc.notes)
    notes["table"] = "ktheory"
    return DimTable(dict(tc.params), entries, tc.window, notes)


@dataclass
class TwoLineReport:
    window: tuple
    violations: list = field(default_factory=list)
    line2_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def two_line_check(ctx: PrimeContext, window, mode: str = "closed") -> TwoLineReport:
    """Every line-2 class of gr TC(Z_p<eps>)/p is a v1-power of del*l1.

    Only generators whose v1-orbit meets the window are examined, so an
    empty window passes vacuously.
    """
    lo, hi = window
    dec = tc_eps_dims(ctx, window, mode=mode) if lo <= hi else CyclicDecomposition([])
    rep = TwoLineReport(window)
    q = ctx.q

    def orbit_meets_window(g) -> bool:
        if g.bidegree.d > hi:
            return False
        if g.torsion == TORSION_FREE:
            return g.bidegree.d + max(0, -(-(lo - g.bidegree.d) // q)) * q <= hi
        top = g.bidegree.d + (int(g.torsion) - 1) * q
        return top >= lo

    for g in dec:
        if not orbit_meets_window(g):
            continue
        if g.bidegree.s == 2:
            rep.line2_count += 1
            if g.label != "Zp:del*l1":
                rep.violations.append((g.label, tuple(g.bidegree)))
        elif g.bidegree.s > 2 or g.bidegree.s < -1:
            rep.violations.append((g.label, tuple(g.bidegree)))
    return rep


def ceil_log(p: int, x: int) -> int:
    """Smallest e >= 0 with p^e >= x."""
    e = 0
    power = 1
    while power < x:
        power *= p
        e += 1
    return e


def betti_bound(ctx: PrimeContext, d: int) -> int:
    """p-power truncation depth recovering mod p Betti numbers in dimension d."""
    if d < 0:
        raise InputError("dimension must be >= 0")
    p = ctx.p
    m = -((d + 1) // -(p - 1))  # ceil((d+1)/(p-1))
    return ceil_log(p, m + 1) + 2
