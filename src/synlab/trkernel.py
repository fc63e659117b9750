"""TR with shifted coefficients, computed as the kernel of gr(phi - can).

The oracle route: build the fixed-point and Tate E-infinity pages for all
levels that can reach the window, present the canonical and Frobenius maps
on the v1-adic associated graded by their name-level formulas

    can: v1^s se t^i ...  ->  v1^s se t^i ...        (same level, t-type)
         v1^s se mu^j ... ->  0                       (j > 0)
    phi: v1^s se t^i ...  ->  0                       (i > 0)
         v1^s se mu^j ... ->  v1^s se' t^(p^n l (p-1) - p j) ...  (level + 1)

and take kernels of phi - can piece by piece with exact linear algebra.
Both maps act on monomial names, so no degree-based name resolution is
needed; the one degree where two classes share a stem (p | n) stays
unambiguous.  Units are pinned to +1, which changes no dimension or
torsion order (the map's bipartite graph is a disjoint union of paths).

The kernel's own v1-structure is re-derived, not assumed: the module
checks that gr(phi - can) is surjective onto every Tate piece and that v1
is surjective on the computed kernel, which together collapse the abutment
filtration to the v1-adic one.
"""

from __future__ import annotations

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
    geo,
)
from .nygaard import SSPage, Variant, run_to_einf


@dataclass(frozen=True)
class GrV1Class:
    """v1^s times a pure monomial at one level."""

    level: int
    s: int
    base: Monomial  # min(t_exp, mu_exp) == 0

    def __post_init__(self):
        if self.base.t_exp > 0 and self.base.mu_exp > 0:
            raise InputError(f"base {self.base} is not pure (divisible by v1)")
        if self.base.level != self.level:
            raise InputError("base monomial level disagrees")
        if self.s < 0:
            raise InputError("negative v1 filtration")

    @property
    def monomial(self) -> Monomial:
        return self.base.v1_times(self.s)

    @property
    def is_t_type(self) -> bool:
        # t^0 mu^0 counts as both; can and phi each handle it.
        return self.base.mu_exp == 0

    @property
    def is_mu_type(self) -> bool:
        return self.base.t_exp == 0


class PageSet:
    """Fixed-point and Tate E-infinity pages for levels 0..top."""

    def __init__(self, ctx: PrimeContext, ell: int, top: int, window, v1_cutoff: int):
        self.ctx = ctx
        self.ell = ell
        self.top = top
        self.window = window
        self.hfp = {}
        self.tate = {}
        for i in range(top + 1):
            self.hfp[i] = run_to_einf(SSPage(ctx, i, ell, Variant.HFP, window, v1_cutoff))
            if i >= 1:
                self.tate[i] = run_to_einf(SSPage(ctx, i, ell, Variant.TATE, window, v1_cutoff))


def gr_can(cls: GrV1Class, pages: PageSet) -> GrV1Class | None:
    """Associated-graded canonical map; None when it vanishes."""
    if cls.level < 1:
        return None  # level 0 has no Tate target in the limit diagram
    if not cls.is_t_type:
        return None  # mu^j with j > 0 dies
    tate = pages.tate[cls.level]
    if not tate.alive(cls.monomial):
        return None
    return cls


def gr_phi(cls: GrV1Class, pages: PageSet) -> GrV1Class | None:
    """Associated-graded Frobenius into the next level's Tate page."""
    if not cls.is_mu_type:
        return None  # t^i with i > 0 dies
    p = pages.ctx.p
    n = cls.level
    if n + 1 > pages.top:
        raise InputError(f"phi target level {n + 1} not modeled")
    i_t = p**n * pages.ell * (p - 1) - p * cls.base.mu_exp
    target_base = Monomial(n + 1, pages.ell, i_t, 0, cls.base.lam, cls.base.u_exp)
    tate = pages.tate[n + 1]
    if not tate.alive(target_base.v1_times(cls.s)):
        return None
    return GrV1Class(n + 1, cls.s, target_base)


def complete_to_kernel(leading: GrV1Class, pages: PageSet, trunc=TRUNC_INF) -> list:
    """Extend a leading term to a full kernel chain.

    Walks phi(component_i) = can(component_{i+1}) upward through the
    levels; fails loudly when the forced next component is not alive on its
    fixed-point page.  The chain ends where the Frobenius image vanishes or
    falls off the truncation.  Both maps have unit coefficient 1, so the
    components need no coefficients.
    """
    top = pages.top if trunc == TRUNC_INF else min(pages.top, trunc)
    if leading.level > top:
        raise InputError("leading term above the truncation level")
    if leading.level >= 1:
        lead_can = gr_can(leading, pages)
        if lead_can is not None:
            raise InvariantError(f"leading term {leading} is not in ker(can)")
    comps = [leading]
    cur = leading
    while True:
        if cur.level == top:
            break  # phi falls off the truncated diagram
        img = gr_phi(cur, pages)
        if img is None:
            break
        # can is the identity on img, a live t-type Tate class
        if not pages.hfp[img.level].alive(img.monomial):
            raise InvariantError(
                f"chain from {leading} needs dead class {img.monomial} at level {img.level}"
            )
        comps.append(img)
        cur = img
    return comps


@dataclass
class SurjectivityReport:
    ell: int
    trunc: object
    window: tuple
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

    def require_ok(self, what: str) -> None:
        """Raise VerificationFailure naming the first mismatch."""
        if not self.ok:
            first = (self.dim_mismatches or self.torsion_mismatches)[0]
            raise VerificationFailure(f"{what}: oracle and closed form disagree at {first}")


@dataclass
class TrResult:
    decomposition: CyclicDecomposition
    closed: CyclicDecomposition | None = None
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


class TrOracle:
    """Brute-force gr TR^[m](Z_p; Sigma^{2l} Z_p)/p on a stem window."""

    def __init__(self, ctx: PrimeContext, ell: int, trunc, window):
        p = ctx.p
        if ell < 1 or ell % p == 0:
            raise InputError("twist must be positive and prime to p")
        self.ctx = ctx
        self.ell = ell
        self.trunc = trunc
        lo, hi = window
        self.window = (lo, hi)
        if trunc == TRUNC_INF:
            m_max = -1
            while 2 * ell * p ** (m_max + 1) <= hi:
                m_max += 1
            # levels above m_max contribute nothing in the window; modeling
            # two more levels makes every surviving family's torsion exact.
            self.m = m_max
            self.top = max(m_max + 2, 0)
            tors_bound = _window_torsion_bound(p, ell, hi, m_max)
        else:
            if trunc < 0:
                raise InputError("truncation level must be >= 0")
            self.m = trunc
            self.top = trunc
            tors_bound = geo(p, 0, trunc) + 2
        self.tors_bound = tors_bound
        page_hi = hi + ctx.q * (tors_bound + 2)
        v_cut = tors_bound + 4
        self.pages = PageSet(ctx, ell, self.top, (min(lo, 0), page_hi), v_cut)
        self._src_pieces: dict = {}
        self._tgt_pieces: dict = {}
        self._kernels: dict = {}
        self._assemble()

    # -- basis assembly ---------------------------------------------------

    def _assemble(self):
        lo, hi = self.window
        # kills from one stem above can reach the window
        window = (min(lo, 0), hi + 1)
        sides = ((self.pages.hfp, self._src_pieces), (self.pages.tate, self._tgt_pieces))
        for pages, pieces in sides:
            for level, res in pages.items():
                res.assert_pure_chains(window[1])
                for mono, h in res.iter_alive(window):
                    pieces.setdefault((mono.stem(self.ctx), mono.line, h), []).append((level, mono))
        for _pages, pieces in sides:
            for piece in pieces.values():
                piece.sort(key=lambda lm: (lm[0], lm[1].t_exp, lm[1].mu_exp))

    def _gr_class(self, level: int, mono: Monomial, s: int) -> GrV1Class:
        base = Monomial(level, self.ell, mono.t_exp - s, mono.mu_exp - s, mono.lam, mono.u_exp)
        return GrV1Class(level, s, base)

    def matrix(self, key) -> fplinalg.FpMatrix:
        """phi - can from the source piece at key to the Tate piece at key."""
        p = self.ctx.p
        src = self._src_pieces.get(key, [])
        tgt = self._tgt_pieces.get(key, [])
        index = {lm: i for i, lm in enumerate(tgt)}
        entries = {}
        stem, line, s = key
        for j, (level, mono) in enumerate(src):
            cls = self._gr_class(level, mono, s)
            if level >= 1:
                img = gr_can(cls, self.pages)
                if img is not None:
                    row = index.get((level, img.monomial))
                    if row is None:
                        raise InvariantError(f"can image {img.monomial} missing from Tate basis")
                    entries[(row, j)] = (entries.get((row, j), 0) - 1) % p
            if level < self.top:
                img = gr_phi(cls, self.pages)
                if img is not None:
                    row = index.get((level + 1, img.monomial))
                    if row is None:
                        raise InvariantError(f"phi image {img.monomial} missing from Tate basis")
                    entries[(row, j)] = (entries.get((row, j), 0) + 1) % p
        entries = {k: v for k, v in entries.items() if v}
        return fplinalg.FpMatrix(p, len(tgt), len(src), entries)

    def kernel(self, key):
        if key not in self._kernels:
            src = self._src_pieces.get(key, [])
            if not src:
                self._kernels[key] = []
            else:
                self._kernels[key] = fplinalg.kernel_basis(self.matrix(key))
        return self._kernels[key]

    # -- structure extraction ----------------------------------------------

    def _shift_vector(self, key, vec):
        """Multiply a kernel vector by v1; returns (new key, vector)."""
        stem, line, s = key
        nkey = (stem + self.ctx.q, line, s + 1)
        src = self._src_pieces.get(key, [])
        nsrc = self._src_pieces.get(nkey, [])
        nindex = {lm: i for i, lm in enumerate(nsrc)}
        out = [0] * len(nsrc)
        for j, c in enumerate(vec):
            if not c:
                continue
            level, mono = src[j]
            tm = mono.v1_times()
            pos = nindex.get((level, tm))
            if pos is not None:
                out[pos] = c
            elif self.pages.hfp[level].alive(tm):
                raise InvariantError("v1 shift left the assembled stem range")
        return nkey, tuple(out)

    def generators(self) -> list:
        """Kernel generators: filtration-0 kernel basis with exact torsion.

        v1^r of a kernel vector is zero exactly when every monomial
        component has died on its own page (components are distinct basis
        elements, so nothing can cancel), so the torsion is the largest
        component lifetime.
        """
        out = []
        lo, hi = self.window
        for key in sorted(k for k in self._src_pieces if k[2] == 0 and lo <= k[0] <= hi):
            vecs = self.kernel(key)
            src = self._src_pieces[key]
            for vec in vecs:
                r = 0
                for j, c in enumerate(vec):
                    if c:
                        level, mono = src[j]
                        r = max(r, self.pages.hfp[level].life(mono))
                lead = min(j for j, c in enumerate(vec) if c)
                level, mono = src[lead]
                label = f"ker:L{level}:{mono}@{key[0]},{key[1]}"
                out.append(
                    (Generator(label, Bidegree(key[0], key[1]), r), key, vec)
                )
        return out

    def decomposition(self) -> CyclicDecomposition:
        gens = [g for g, _k, _v in self.generators()]
        return CyclicDecomposition(gens)

    # -- checks -------------------------------------------------------------

    def check_equalizer(self, key, vec) -> bool:
        """Every kernel representative satisfies gr(phi)(x) = gr(can)(x)."""
        return not any(self.matrix(key).mul_vec(vec))

    def check_v1_surjectivity(self) -> list:
        """v1: gr^s -> gr^(s+1) of the kernel must be onto, every bidegree.

        Checked for every piece whose v1-predecessor stem is still inside
        the window (so the predecessor kernel is fully assembled).
        """
        failures = []
        lo, hi = self.window
        q = self.ctx.q
        for key in sorted(self._src_pieces):
            stem, line, s = key
            if s == 0 or not (lo <= stem <= hi):
                continue
            pkey = (stem - q, line, s - 1)
            kdim = len(self.kernel(key))
            if kdim == 0:
                continue
            span = fplinalg.VectorSpan(self.ctx.p, len(self._src_pieces[key]))
            for pv in self.kernel(pkey):
                _nk, sh = self._shift_vector(pkey, pv)
                if any(sh):
                    span.add(sh)
            if span.rank < kdim:
                failures.append((key, kdim, span.rank))
        return failures

    def surjectivity_report(self) -> SurjectivityReport:
        rep = SurjectivityReport(self.ell, self.trunc, self.window)
        lo, hi = self.window
        for key in sorted(self._tgt_pieces):
            stem, line, s = key
            if not (lo <= stem <= hi):
                continue
            tgt = self._tgt_pieces[key]
            mat = self.matrix(key)
            rep.pieces_checked += 1
            r = fplinalg.rank(mat)
            rep.margins[key] = mat.cols - len(tgt)
            if r < len(tgt):
                rep.failures.append((key, len(tgt), r))
        return rep


def tr_gr_module(
    ctx: PrimeContext,
    ell: int,
    trunc=TRUNC_INF,
    window=(0, 200),
    mode: str = "both",
    with_surjectivity: bool = False,
) -> TrResult:
    """gr TR^[trunc](Z_p; Sigma^(2 ell) Z_p)/p as a cyclic decomposition.

    mode "oracle": brute-force kernel; "closed": family enumeration;
    "both": run the two independently and attach an entrywise comparison.
    """
    if mode not in ("oracle", "closed", "both"):
        raise InputError(f"unknown mode {mode}")
    closed = None
    if mode in ("closed", "both"):
        closed = tr_closed_decomposition(ctx, ell, trunc, (0, window[1]))
    if mode == "closed":
        return TrResult(decomposition=closed, closed=closed)
    oracle = TrOracle(ctx, ell, trunc, window)
    dec = oracle.decomposition()
    result = TrResult(decomposition=dec, closed=closed)
    if with_surjectivity:
        result.surjectivity = oracle.surjectivity_report()
    vfail = oracle.check_v1_surjectivity()
    if vfail:
        raise InvariantError(f"v1 not surjective on the kernel at {vfail[:3]}")
    if mode == "both":
        lo, hi = window
        d_or = {k: v for k, v in dec.dims(ctx, window).entries.items() if v}
        d_cl = {k: v for k, v in closed.dims(ctx, window).entries.items() if v}
        dim_mismatches = [
            (k, d_or.get(k, 0), d_cl.get(k, 0))
            for k in sorted(set(d_or) | set(d_cl))
            if d_or.get(k, 0) != d_cl.get(k, 0)
        ]
        t_or = Counter((tuple(g.bidegree), g.torsion) for g in dec.generators_in(window))
        t_cl = Counter((tuple(g.bidegree), g.torsion) for g in closed.generators_in(window))
        torsion_mismatches = [
            (k, t_or.get(k, 0), t_cl.get(k, 0))
            for k in sorted(set(t_or) | set(t_cl))
            if t_or.get(k, 0) != t_cl.get(k, 0)
        ]
        result.comparison = TrComparison(dim_mismatches, torsion_mismatches)
    return result


def check_surjectivity(ctx: PrimeContext, ell: int, m, window) -> SurjectivityReport:
    """gr(phi - can) must surject onto every Tate piece in the window."""
    lo, hi = window
    if lo > hi:
        return SurjectivityReport(ell, m, window)  # vacuous
    oracle = TrOracle(ctx, ell, m, window)
    return oracle.surjectivity_report()


def probe_element_torsion(pages: PageSet, comps) -> int:
    """Torsion of a kernel chain: all components must die simultaneously."""
    best = 0
    for cls in comps:
        res = pages.hfp[cls.level]
        life = res.life(cls.monomial)
        best = max(best, life)
    return best
