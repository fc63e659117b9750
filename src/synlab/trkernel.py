"""TR with shifted coefficients, computed as the kernel of gr(phi - can).

The oracle route: build the fixed-point and Tate E-infinity pages for all
levels that can reach the window, present the canonical and Frobenius maps
on the v1-adic associated graded by their name-level formulas

    can: v1^s se t^i ...  ->  v1^s se t^i ...        (same level, t-type)
         v1^s se mu^j ... ->  0                       (j > 0)
    phi: v1^s se t^i ...  ->  0                       (i > 0)
         v1^s se mu^j ... ->  v1^s se' t^(p^n l (p-1) - p j) ...  (level + 1)

and take kernels of phi - can piece by piece with exact linear algebra.
A class is (level, Monomial) on the fixed-point or Tate page of that level;
in the piece at (stem, line, s) it is v1^s times a pure monomial, so it is
t-type when mu_exp == s and mu-type when t_exp == s.  Both maps act on
monomial names, so no degree-based name resolution is needed; the one
degree where two classes share a stem (p | n) stays unambiguous.  Units
are pinned to +1, which changes no dimension or torsion order (the map's
bipartite graph is a disjoint union of paths).

The kernel's own v1-structure is re-derived, not assumed: the module
checks that gr(phi - can) is surjective onto every Tate piece and that v1
is surjective on the computed kernel, which together collapse the abutment
filtration to the v1-adic one.
"""

from __future__ import annotations

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
    torsion_multiset,
)
from .nygaard import SSPage, Variant, run_to_einf


class PageSet:
    """Fixed-point and Tate E-infinity pages for levels 0..top.

    Every page's size guard runs before the first page is built, so a
    window too large for the top page fails before any work.
    """

    def __init__(self, ctx: PrimeContext, ell: int, top: int, window, v1_cutoff: int):
        self.ctx = ctx
        self.ell = ell
        self.top = top
        plan = [(i, v) for i in range(top + 1) for v in (Variant.HFP, Variant.TATE) if i >= 1 or v is Variant.HFP]
        for i, variant in plan:
            SSPage.check_size(ctx, i, ell, variant, window, v1_cutoff)
        self.hfp = {}
        self.tate = {}
        for i, variant in plan:
            pages = self.hfp if variant is Variant.HFP else self.tate
            pages[i] = run_to_einf(SSPage(ctx, i, ell, variant, window, v1_cutoff))


def gr_can(level: int, mono: Monomial, s: int, pages: PageSet) -> tuple | None:
    """Associated-graded canonical map on the class (level, mono) at v1-height
    s; its image (level, mono), or None when it vanishes."""
    if level < 1:
        return None  # level 0 has no Tate target in the limit diagram
    if mono.mu_exp != s:
        return None  # v1^s mu^j with j > 0 dies; t^0 mu^0 is t-type too
    if not pages.tate[level].alive(mono):
        return None
    return level, mono


def gr_phi(level: int, mono: Monomial, s: int, pages: PageSet) -> tuple | None:
    """Associated-graded Frobenius on the class (level, mono) at v1-height s,
    into the next level's Tate page; its image, or None when it vanishes."""
    if mono.t_exp != s:
        return None  # v1^s t^i with i > 0 dies
    p = pages.ctx.p
    if level + 1 > pages.top:
        raise InputError(f"phi target level {level + 1} not modeled")
    i_t = p**level * pages.ell * (p - 1) - p * (mono.mu_exp - s)
    target = Monomial(level + 1, pages.ell, i_t + s, s, mono.lam, mono.u_exp)
    if not pages.tate[level + 1].alive(target):
        return None
    return level + 1, target


def complete_to_kernel(leading: tuple, pages: PageSet) -> list:
    """Extend a leading term (level, mono), a pure monomial, to a full kernel
    chain of (level, Monomial) components.

    Walks phi(component_i) = can(component_{i+1}) upward through the
    levels; fails loudly when the forced next component is not alive on its
    fixed-point page.  The chain ends where the Frobenius image vanishes or
    at the top modeled level.  Both maps have unit coefficient 1, so the
    components need no coefficients.
    """
    level, mono = leading
    if mono.level != level:
        raise InputError("leading monomial level disagrees")
    if mono.t_exp > 0 and mono.mu_exp > 0:
        raise InputError(f"leading term {mono} is not pure (divisible by v1)")
    if level > pages.top:
        raise InputError("leading term above the top modeled level")
    if gr_can(level, mono, 0, pages) is not None:
        raise InvariantError(f"leading term {mono} at level {level} is not in ker(can)")
    comps = [leading]
    while level < pages.top:
        img = gr_phi(level, mono, 0, pages)
        if img is None:
            break
        level, mono = img
        # can is the identity on img, a live t-type Tate class
        if not pages.hfp[level].alive(mono):
            raise InvariantError(f"chain from {leading[1]} needs dead class {mono} at level {level}")
        comps.append(img)
    return comps


def probe_element_torsion(pages: PageSet, comps) -> int:
    """Torsion of a kernel chain of (level, Monomial) components.

    v1^r of the chain is zero exactly when every component has died on its
    own page (components are distinct basis elements, so nothing can
    cancel), so the torsion is the largest component life.
    """
    return max((pages.hfp[level].life(mono) for level, mono in comps), default=0)


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
    decomposition: CyclicDecomposition
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

    def matrix(self, key) -> fplinalg.FpMatrix:
        """phi - can from the source piece at key to the Tate piece at key."""
        p = self.ctx.p
        src = self._src_pieces.get(key, [])
        tgt = self._tgt_pieces.get(key, [])
        index = {lm: i for i, lm in enumerate(tgt)}
        entries = {}
        s = key[2]
        for j, (level, mono) in enumerate(src):
            for img, sign, what in (
                (gr_can(level, mono, s, self.pages), -1, "can"),
                (gr_phi(level, mono, s, self.pages) if level < self.top else None, 1, "phi"),
            ):
                if img is None:
                    continue
                row = index.get(img)
                if row is None:
                    raise InvariantError(f"{what} image {img[1]} missing from Tate basis")
                entries[(row, j)] = (entries.get((row, j), 0) + sign) % p
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
        out = {}
        for j, c in vec.items():
            level, mono = src[j]
            tm = mono.v1_times()
            pos = nindex.get((level, tm))
            if pos is not None:
                out[pos] = c
            elif self.pages.hfp[level].alive(tm):
                raise InvariantError("v1 shift left the assembled stem range")
        return nkey, out

    def generators(self) -> list:
        """Kernel generators: filtration-0 kernel basis, each with the
        torsion of its chain (probe_element_torsion)."""
        out = []
        lo, hi = self.window
        for key in sorted(k for k in self._src_pieces if k[2] == 0 and lo <= k[0] <= hi):
            vecs = self.kernel(key)
            src = self._src_pieces[key]
            for vec in vecs:
                r = probe_element_torsion(self.pages, [src[j] for j in vec])
                level, mono = src[min(vec)]
                label = f"ker:L{level}:{mono}@{key[0]},{key[1]}"
                out.append(
                    (Generator(label, Bidegree(key[0], key[1]), r), key, vec)
                )
        return out

    def decomposition(self) -> CyclicDecomposition:
        gens = [g for g, _k, _v in self.generators()]
        return CyclicDecomposition(gens)

    # -- checks -------------------------------------------------------------

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
                if sh:
                    span.add(sh)
            if span.rank < kdim:
                failures.append((key, kdim, span.rank))
        return failures

    def surjectivity_report(self) -> SurjectivityReport:
        rep = SurjectivityReport()
        lo, hi = self.window
        for key in sorted(self._tgt_pieces):
            stem, line, s = key
            if not (lo <= stem <= hi):
                continue
            src, tgt = self._src_pieces.get(key, []), self._tgt_pieces[key]
            rep.pieces_checked += 1
            # kernel_basis has one vector per free column of the reduction
            # rank reads, so this is the rank of the piece matrix
            r = len(src) - len(self.kernel(key))
            rep.margins[key] = len(src) - len(tgt)
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
    "both": run the two independently, raise VerificationFailure at the
    first (stem, line) dimension, else (stem, line, torsion) multiplicity,
    where they differ, and attach the (empty) comparison.  Every oracle run
    raises InvariantError unless gr(phi - can) is onto every Tate piece of
    the window and v1 is onto the kernel; with_surjectivity attaches the
    first check's report to the result.
    """
    if mode not in ("oracle", "closed", "both"):
        raise InputError(f"unknown mode {mode}")
    closed = None
    if mode in ("closed", "both"):
        closed = tr_closed_decomposition(ctx, ell, trunc, (0, window[1]))
    if mode == "closed":
        return TrResult(closed)
    oracle = TrOracle(ctx, ell, trunc, window)
    dec = oracle.decomposition()
    surj = oracle.surjectivity_report()
    if surj.failures:
        raise InvariantError(f"gr(phi - can) not onto the Tate piece at {surj.failures[0]}")
    result = TrResult(dec, surjectivity=surj if with_surjectivity else None)
    vfail = oracle.check_v1_surjectivity()
    if vfail:
        raise InvariantError(f"v1 not surjective on the kernel at {vfail[:3]}")
    if mode == "both":
        comp = TrComparison(
            differences(dec.dims(ctx, window).entries, closed.dims(ctx, window).entries),
            differences(torsion_multiset(dec.generators_in(window)), torsion_multiset(closed.generators_in(window))),
        )
        if not comp.ok:
            first = (comp.dim_mismatches or comp.torsion_mismatches)[0]
            raise VerificationFailure(f"twist l={ell}: oracle and closed form disagree at {first}")
        result.comparison = comp
    return result
