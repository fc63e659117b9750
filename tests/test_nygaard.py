import gc
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from synlab import fplinalg, nygaard, verify
from synlab.errors import InputError, InvariantError, ResourceError, StateError
from synlab.fplinalg import VectorSpan, kernel_basis
from synlab.graded import Bidegree, Monomial, PrimeContext, geo
from synlab.nygaard import (
    EInfClass,
    EInfResult,
    SSPage,
    StageMap,
    Variant,
    default_v1_cutoff,
    run_to_einf,
    run_to_einf_dense,
)
from synlab.trkernel import _window_torsion_bound
from test_fplinalg import _residues
from test_graded import vp
from test_trkernel import _outcome, iter_alive

CTX3 = PrimeContext(3)


class FpMatrix(fplinalg.FpMatrix):
    """FpMatrix with a constructor from its list of columns."""

    @classmethod
    def from_columns(cls, p: int, columns, nrows: int) -> "FpMatrix":
        """The matrix whose j-th column is the sparse vector columns[j]."""
        columns = list(columns)
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in _residues(col, p, nrows).items()}
        return cls(p, nrows, len(columns), entries)


def _class(lad, h):
    """The class (t, mu, lam, u) at height h of a ladder."""
    return (lad.base_a + h, lad.base_b + h, lad.e1, lad.e2)


def _divisibility(variant, t, mu):
    """Largest j with t^t mu^mu = v1^j * (a monomial valid for the variant)."""
    return min(t, mu) if variant is Variant.HFP else mu if variant is Variant.TATE else t


def test_ladder_view_of_basis_cutoff():
    # window stems 0..6 with cutoff 2: the delta=0 ladder holds exactly 1, t*mu
    page = SSPage(CTX3, 0, 0, Variant.HFP, (0, 6), v1_cutoff=2)
    lad = page.ladders[(0, 0, 0)]
    assert [_class(lad, h) for h in range(page.v1_cutoff)] == [(0, 0, 0, 0), (1, 1, 0, 0)]
    # every ladder starts at a monomial of the variant not divisible by v1,
    # so height is v1-divisibility and the cutoff bounds what is reported
    for lad in page.ladders.values():
        for h in (lad.h_lo, lad.h_cap - 1):
            t, mu, _lam, _u = _class(lad, h)
            assert _divisibility(page.variant, t, mu) == h
    # E-infinity reports only heights below the cutoff, on a page whose own
    # window is the padded band of the first
    res = run_to_einf(SSPage(CTX3, 0, 0, Variant.HFP, (page.lo_pad, page.hi_pad), v1_cutoff=2))
    reported = [m for m, _h in iter_alive(res, res.page.window)]
    assert reported and all(_divisibility(page.variant, m.t_exp, m.mu_exp) < 2 for m in reported)


def test_page_bottom_class_stem():
    page = SSPage(CTX3, 1, 1, Variant.HFP, (0, 12), v1_cutoff=2)
    lad = page.ladders[(0, 0, 0)]
    assert lad.stem0 == 6  # se(l p^n) sits in stem 2*l*p^n


def test_tate_basis_when_cutoff_one():
    page = SSPage(CTX3, 1, 0, Variant.TATE, (0, 0), v1_cutoff=1)
    assert _class(page.ladders[(0, 0, 0)], 0) == (0, 0, 0, 0)
    # read on a page whose own window is the padded band of the first
    res = run_to_einf(SSPage(CTX3, 1, 0, Variant.TATE, (page.lo_pad, page.hi_pad), v1_cutoff=1))
    reported = [m for m, _h in iter_alive(res, res.page.window)]
    assert reported and all(_divisibility(Variant.TATE, m.t_exp, m.mu_exp) < 1 for m in reported)


def test_stage_t0_on_t():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    d = StageMap(page, "T0")
    coeff, tgt = d.on_class((1, 0, 0, 0))  # t
    assert coeff == 1 and tgt == (4, 0, 1, 0)  # t^4 l1


def test_stage_t0_on_mu_leibniz():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    d = StageMap(page, "T0")
    coeff, tgt = d.on_class((0, 1, 0, 0))  # mu
    assert coeff == 3 - 1  # -1 mod 3
    assert tgt == (3, 1, 1, 0)  # t^3 mu l1


def test_stage_u_rule():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    page.run_stage("T0")
    d = StageMap(page, "U")
    coeff, tgt = d.on_class((0, 0, 0, 1))  # u
    assert coeff == 1 and tgt == (4, 1, 0, 0)  # v1 t^3


def test_twisted_coefficient_on_bottom_class():
    # d(se) at stage T_{n-1} carries the unit l*n; it dies when p | l*n
    page = SSPage(CTX3, 1, 1, Variant.HFP, (0, 12), v1_cutoff=2)
    # -l*n*(p-1) = 1 mod 3
    assert StageMap(page, "T0").on_class((0, 0, 0, 0))[0] == 1
    page3 = SSPage(CTX3, 1, 3, Variant.HFP, (0, 30), v1_cutoff=2)
    assert StageMap(page3, "T0").on_class((0, 0, 0, 0)) is None


@pytest.mark.parametrize("p, n, ell, variant", [(3, 1, 1, Variant.HFP), (2, 3, 1, Variant.TATE),
                                                (5, 2, 2, Variant.MUINV)])
def test_stage_map_values_over_every_class_of_a_page(p, n, ell, variant):
    """Every height of every ladder maps as its bottom does, moved up by v1
    (t and mu both up by one): the stage maps are v1-linear.  Each nonzero
    image has a unit coefficient one stem down and one line up."""
    ctx = PrimeContext(p)
    page = SSPage(ctx, n, ell, variant, (-8, 24), v1_cutoff=5)
    for stage in page.stages:
        d = StageMap(page, stage)
        hits = 0
        for lad in page.ladders.values():
            bottom = d.on_class(_class(lad, lad.h_lo))
            for h in range(lad.h_lo, lad.h_cap):
                cls = _class(lad, h)
                got = d.on_class(cls)
                if bottom is None:
                    assert got is None, (stage, cls)
                    continue
                coeff, (t, mu, lam, u) = bottom
                shift = h - lad.h_lo
                assert got == (coeff, (t + shift, mu + shift, lam, u)), (stage, cls)
                assert coeff % p
                src_bid = Monomial(n, ell, *cls).bidegree(ctx)
                tgt_bid = Monomial(n, ell, *got[1]).bidegree(ctx)
                assert (tgt_bid.d, tgt_bid.s) == (src_bid.d - 1, src_bid.s + 1), (stage, cls)
                hits += 1
        assert hits, stage


def test_stage_order_enforced():
    page = SSPage(CTX3, 2, 0, Variant.HFP, (0, 10), v1_cutoff=2)
    with pytest.raises(StateError):
        page.run_stage("U")
    with pytest.raises(InputError, match="stage T5 not scheduled for n=2"):
        StageMap(page, "T5")
    page.run_stage("T0")
    with pytest.raises(StateError):
        page.run_stage("T0")
    with pytest.raises(StateError, match="page has not completed all stages"):
        EInfResult(page)
    page.run_stage("T1")
    page.run_stage("U")
    assert EInfResult(page).page is page


def test_differential_bidegree_shift_and_dd_zero():
    for (p, n, ell), variant in itertools.product(((3, 1, 1), (3, 2, 1), (2, 3, 1), (5, 2, 2)), Variant):
        ctx = PrimeContext(p)
        page = SSPage(ctx, n, ell, variant, (-8, 24), v1_cutoff=5)
        for stage in page.stages:
            d = StageMap(page, stage)
            hits = 0
            for lad in page.ladders.values():
                for h in (lad.h_lo, lad.h_cap - 1):
                    cls = _class(lad, h)
                    img = d.on_class(cls)
                    if img is None:
                        continue
                    hits += 1
                    coeff, tgt = img
                    assert coeff % p
                    src_bid = Monomial(n, ell, *cls).bidegree(ctx)
                    tgt_bid = Monomial(n, ell, *tgt).bidegree(ctx)
                    assert tgt_bid.d == src_bid.d - 1 and tgt_bid.s == src_bid.s + 1
                    if (tgt[2], tgt[3], tgt[0] - tgt[1]) in page.ladders:
                        assert d.on_class(tgt) is None  # d o d = 0
            assert hits, (p, n, ell, stage)


def test_t_stage_images_are_lambda_multiples_and_vanish_on_them():
    page = SSPage(CTX3, 2, 1, Variant.HFP, (0, 30), v1_cutoff=3)
    d = StageMap(page, "T0")
    for key, lad in page.ladders.items():
        cls = _class(lad, lad.h_lo)
        img = d.on_class(cls)
        if cls[2] == 1:  # lam
            assert img is None
        elif img is not None:
            assert img[1][2] == 1


def test_n0_pattern():
    page = SSPage(CTX3, 0, 0, Variant.HFP, (0, 14), v1_cutoff=3)
    res = run_to_einf(page)
    totals = Counter()
    for (d, _s), n in res.dim_table((0, 14)).entries.items():
        totals[d] += n
    assert totals == {0: 1, 5: 1, 6: 1, 11: 1, 12: 1}
    for cls in res.classes((0, 14)):
        assert cls.v1_torsion == 1


def test_hfp_unit_class_torsion():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-4, 30), v1_cutoff=8)
    res = run_to_einf(page)
    unit = [c for c in res.classes((0, 0)) if c.representative == Monomial(level=1)]
    assert len(unit) == 1 and unit[0].v1_torsion == 1 + 3 and unit[0].certified


def test_tate_unit_class_torsion():
    page = SSPage(CTX3, 1, 0, Variant.TATE, (-4, 8), v1_cutoff=4)
    res = run_to_einf(page)
    unit = [c for c in res.classes((0, 0)) if c.representative == Monomial(level=1)]
    assert len(unit) == 1 and unit[0].v1_torsion == 1


def test_tate_level_zero_vanishes():
    page = SSPage(CTX3, 0, 0, Variant.TATE, (-10, 10), v1_cutoff=3)
    res = run_to_einf(page)
    assert res.dim_table((-10, 10)).entries == {}


def test_collapse_after_final_stage():
    # t^(p^n) is a permanent cycle: the would-be stage T_n kills nothing.
    # The targets' ladders start down to stem -37 (n = 2), so the page's
    # read stems, (v1_cutoff - 1)*q below its window, reach below that.
    for n, ell in ((1, 0), (1, 1), (2, 1)):
        page = SSPage(CTX3, n, ell, Variant.HFP, (-30, 40), v1_cutoff=4)
        res = run_to_einf(page)
        p = 3
        c = page._twist_coeff
        G, P = geo(p, 1, n), p ** (n + 1)
        for mono, h in iter_alive(res, (4, 36)):
            if mono.lam or vp(p, (mono.t_exp - mono.mu_exp) + c) != n:
                continue
            assert not res.alive((n, mono.t_exp + G + P, mono.mu_exp + G, 1, mono.u_exp))


def test_alive_and_life_off_the_alive_intervals():
    page = SSPage(CTX3, 1, 1, Variant.HFP, (0, 40), v1_cutoff=4)
    res = run_to_einf(page)
    # no ladder of the page holds a class this far from its window
    far = (1, 10**6, 0, 0, 0)
    assert page._segment_of(0, 0, 10**6) is None
    assert not res.alive(far) and res.life(far) == 0
    # v1^r g is dead, on the ladder of g, for r the life of g
    mono, _h = next(iter_alive(res, (4, 36)))
    g = (1, mono.t_exp, mono.mu_exp, mono.lam, mono.u_exp)
    r = res.life(g)
    assert r > 0 and not res.alive(g, r) and res.life(g, r) == 0


def test_cutoff_doubling_stable():
    for variant in (Variant.HFP, Variant.TATE, Variant.MUINV):
        base = run_to_einf(SSPage(CTX3, 1, 1, variant, (-10, 20), v1_cutoff=5))
        double = run_to_einf(SSPage(CTX3, 1, 1, variant, (-10, 20), v1_cutoff=10))
        assert base.dim_table((-10, 20)).entries == double.dim_table((-10, 20)).entries
        sig = lambda r: sorted((tuple(c.bidegree), c.v1_torsion) for c in r.classes((-10, 20)) if c.certified)
        assert sig(base) == sig(double)


def test_ladder_engine_matches_dense_engine():
    cases = [
        (3, 1, 0, Variant.HFP, 0),
        (3, 1, 1, Variant.HFP, 0),
        (3, 1, 1, Variant.TATE, 0),
        (3, 1, 0, Variant.MUINV, 0),
        (2, 2, 1, Variant.HFP, 0),
        (2, 1, 1, Variant.MUINV, 0),
        (5, 1, 2, Variant.HFP, 0),
        # the most stages, on windows reaching below stem 0
        (3, 2, 1, Variant.TATE, -8),
        (2, 3, 1, Variant.HFP, -8),
    ]
    for p, n, ell, variant, lo in cases:
        ctx = PrimeContext(p)
        window = (lo * p, 8 * p)
        V = geo(p, 0, n) + 1
        ladder = run_to_einf(SSPage(ctx, n, ell, variant, window, V))
        dense = run_to_einf_dense(SSPage(ctx, n, ell, variant, window, V), window)
        a = sorted((tuple(c.bidegree), c.v1_torsion) for c in ladder.classes(window) if c.certified)
        b = sorted((tuple(g.bidegree), g.torsion) for g in dense if g.certified)
        assert a == b, (p, n, ell, variant)


@settings(max_examples=80, derandomize=True)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_stage_kernel_equals_the_kernel_over_every_column(p, src_dim, tgt_dim, seed):
    """Zero-image numerators pass through and the live kernel vectors are
    merged back in column order: the same list as a kernel over every
    column.  On a page every stage maps monomials to monomials, so no live
    column is ever free there; this draws images that make some free."""
    rng = random.Random(seed)

    def vec(dim, density):
        return {j: rng.randrange(1, p) for j in range(dim) if rng.random() < density}

    def combination(vecs):
        out = {}
        for v in vecs:
            c = rng.randrange(p)
            for j, x in v.items():
                out[j] = (out.get(j, 0) + c * x) % p
        return {j: x for j, x in out.items() if x}

    bounds = [vec(tgt_dim, 0.3) for _ in range(rng.randrange(3))]
    nvecs = [vec(src_dim, 0.4) for _ in range(rng.randrange(1, 10))]
    images = []
    for _ in nvecs:
        kind = rng.randrange(4)  # empty, a boundary, dependent on earlier images, or random
        images.append({} if kind == 0 else combination(bounds) if kind == 1 else
                      combination(images) if kind == 2 else vec(tgt_dim, 0.4))

    ref_span = VectorSpan(p, tgt_dim, bounds)
    reduced = [ref_span.reduce(im) for im in images]
    want = []
    for combo in kernel_basis(FpMatrix.from_columns(p, reduced, tgt_dim)):
        acc = {}
        for j, c in combo.items():
            for t, x in nvecs[j].items():
                acc[t] = acc.get(t, 0) + c * x
        want.append({t: x % p for t, x in acc.items() if x % p})
    for red in reduced:
        ref_span.add(red)

    span = VectorSpan(p, tgt_dim, bounds)
    assert nygaard._stage_kernel(p, nvecs, images, span) == want
    assert span.basis() == ref_span.basis()


def test_resource_guard_dense(monkeypatch):
    made = []

    class CountingMonomial(Monomial):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    def no_basis(*args):
        raise AssertionError("a basis entry was made")

    page = SSPage(CTX3, 2, 1, Variant.HFP, (-500, 500), v1_cutoff=40)
    monkeypatch.setattr(nygaard, "Monomial", CountingMonomial)
    monkeypatch.setattr(nygaard, "_chain_basis", no_basis)
    with pytest.raises(ResourceError):
        run_to_einf_dense(page, (-500, 500))
    # refused before any basis entry, ladder view or monomial
    assert made == [] and "ladders" not in vars(page)
    # a page within the guard does reach the basis
    with pytest.raises(AssertionError, match="basis entry"):
        run_to_einf_dense(SSPage(CTX3, 1, 1, Variant.HFP, (0, 24), 4), (0, 24))


def test_dense_engine_refusal_names_the_bidegree(monkeypatch):
    # a subquotient the dense engine cannot form is an error, never a
    # bidegree silently skipped by the independent witness
    def refuse(*args):
        raise InputError("denominator not contained in numerator span")

    monkeypatch.setattr(nygaard.fplinalg, "subquotient", refuse)
    with pytest.raises(InvariantError, match=r"dense engine at \(stem, line\) = \(-?\d+, -?\d+\): denominator"):
        run_to_einf_dense(SSPage(CTX3, 1, 1, Variant.HFP, (0, 24), 4), (0, 24))


def _dense_basis(page) -> tuple:
    """(basis, position) over the whole band, as the dense engine once made
    them: basis maps (stem, line) to its classes (t, mu, lam, u),
    ascending, and position a class to (bidegree, index, height)."""
    basis: dict = {}
    for seg in itertools.chain.from_iterable(page._band().values()):
        for delta in seg.deltas:
            stem0 = seg.K + seg.stem_slope * delta
            a, b, lam, u = seg.a_slope * delta, seg.b_slope * delta, seg.e1, seg.e2
            for h in range(*page._heights(stem0)):
                basis.setdefault((stem0 + h * page.ctx.q, lam - u), []).append(((a + h, b + h, lam, u), h))
    position: dict = {}
    for bid, entries in basis.items():
        entries.sort()
        position.update((cls, (bid, i, h)) for i, (cls, h) in enumerate(entries))
        basis[bid] = [cls for cls, _h in entries]
    return basis, position


def _dense_stage_major(page, window) -> list:
    """The generators of run_to_einf_dense as the engine once made them,
    stage by stage over every bidegree of the whole band's basis: the
    reference for the chain-by-chain, built- and staged-on-first-read
    engine.  It calls nygaard._stage_kernel and StageMap through the
    module, so a test can count its calls as it counts the engine's."""
    q, p = page.ctx.q, page.ctx.p
    basis, position = _dense_basis(page)
    numerators = {bid: [{i: 1} for i in range(len(classes))] for bid, classes in basis.items()}
    boundaries = {bid: VectorSpan(p, len(classes)) for bid, classes in basis.items()}
    for stage in page.stages:
        on_class = nygaard.StageMap(page, stage).on_class
        new_numerators = {}
        for bid, nvecs in numerators.items():
            tgt_bid = (bid[0] - 1, bid[1] + 1)
            if not basis.get(tgt_bid) or not nvecs:
                new_numerators[bid] = list(nvecs)
                continue
            images = []
            for vec in nvecs:
                out = {}
                for i, c in vec.items():
                    im = on_class(basis[bid][i])
                    if im is not None and (pos := position.get(im[1])) is not None and pos[0] == tgt_bid:
                        out[pos[1]] = out.get(pos[1], 0) + c * im[0]
                images.append(out)
            new_numerators[bid] = nygaard._stage_kernel(p, nvecs, images, boundaries[tgt_bid])
        numerators = new_numerators

    def v1_shift(bid, vec):
        nxt_bid = (bid[0] + q, bid[1])
        shifted = {}
        for i, c in vec.items():
            t, mu, lam, u = basis[bid][i]
            pos = position.get((t + 1, mu + 1, lam, u))
            if pos is None or pos[0] != nxt_bid:
                return nxt_bid, None
            shifted[pos[1]] = c
        return nxt_bid, shifted

    gens = []
    lo, hi = window
    for bid in sorted(basis):
        stem, line = bid
        if not lo <= stem <= hi:
            continue
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
            r, vec, cur_bid, certified = 0, rep, bid, True
            while vec and not boundaries[cur_bid].contains(vec):
                cur_bid, vec = v1_shift(cur_bid, vec)
                r += 1
                if vec is None:
                    certified = False
                    break
            gens.append((f"dense:L{page.n}:{Monomial(page.n, page.ell, *lead)}", Bidegree(stem, line), r, certified))
    return gens


def _band_size(page) -> int:
    """The dense engine's basis size on a page: every modeled height of
    every band ladder."""
    size = 0
    for seg in itertools.chain.from_iterable(page._band().values()):
        for delta in seg.deltas:
            h_lo, h_cap = page._heights(seg.K + seg.stem_slope * delta)
            size += h_cap - h_lo
    return size


@st.composite
def _dense_draws(draw):
    """A page and a read window whose ends are the page window's, anything
    inside it, or the padded band's stems (lo_pad, hi_pad), where the
    lowest bidegrees have no v1 step below and the torsion climb runs off
    the band; cutoffs of 1..4 leave some torsions uncertified."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 3))
    variant = draw(st.sampled_from(list(Variant)))
    lo = draw(st.integers(-40, 40))
    hi = lo + draw(st.integers(0, 40))
    page = SSPage(PrimeContext(p), n, draw(st.integers(0, 3)), variant, (lo, hi), draw(st.integers(1, 4)))
    assume(_band_size(page) <= 6000)
    read_lo = draw(st.sampled_from((lo, lo, min(hi, lo + draw(st.integers(0, 10))), page.lo_pad)))
    read_hi = draw(st.sampled_from((hi, hi, max(read_lo, hi - draw(st.integers(0, 10))), page.hi_pad)))
    return page, (read_lo, read_hi)


@settings(max_examples=60, deadline=None)
@given(_dense_draws())
@example((SSPage(PrimeContext(3), 2, 1, Variant.TATE, (-6, 6), 2), (-6, 6)))
@example((SSPage(PrimeContext(2), 3, 1, Variant.HFP, (-4, 4), 1), (-4, 4)))
def test_the_lazy_dense_engine_equals_the_stage_major_reference(draw):
    # every chain it reads has the whole band's basis there, index for
    # index, and sees the eliminations the stage-major sweep makes, so the
    # generators agree entry for entry, uncertified ones too; a read window
    # in the padding, where a chain's partners lie off the band, is refused
    # at the same bidegree
    page, window = draw
    chains, made = set(), []
    chain_basis = nygaard._chain_basis

    def recording(runs, key, q, v, basis, position):
        chains.add(key)
        made[:] = [basis, position]
        chain_basis(runs, key, q, v, basis, position)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nygaard, "_chain_basis", recording)
        got = _outcome(lambda: [(g.label, g.bidegree, g.torsion, g.certified) for g in run_to_einf_dense(page, window)])
    assert got == _outcome(_dense_stage_major, page, window)
    basis, position = _dense_basis(page)
    got_basis, got_position = made
    assert got_basis == {bid: classes for bid, classes in basis.items() if sum(bid) in chains}
    assert got_position == {cls: pos for cls, pos in position.items() if sum(pos[0]) in chains}


def test_the_dense_engine_stages_only_the_chains_it_reads(monkeypatch):
    page = SSPage(CTX3, 2, 1, Variant.TATE, (-24, 24), geo(3, 0, 2) + 1)
    lo, q = page.window[0], CTX3.q
    last = [None]
    on_class = StageMap.on_class

    def recording(self, cls):
        last[0] = cls
        return on_class(self, cls)

    monkeypatch.setattr(StageMap, "on_class", recording)

    def chains_staged(engine) -> list:
        """The chain key stem + line of the source bidegree of each
        _stage_kernel call the engine makes; a call's images were made by
        on_class on its source classes just before it."""
        keys = []
        stage_kernel = nygaard._stage_kernel

        def counting(p, nvecs, images, bspan):
            stem, line = Monomial(page.n, page.ell, *last[0]).bidegree(CTX3)
            keys.append(stem + line)
            return stage_kernel(p, nvecs, images, bspan)

        with monkeypatch.context() as mp:
            mp.setattr(nygaard, "_stage_kernel", counting)
            engine(page, page.window)
        return keys

    lazy, whole = chains_staged(run_to_einf_dense), chains_staged(_dense_stage_major)
    assert len(lazy) < len(whole)
    # chain k holds (k + 1, -1), (k, 0) and (k - 1, 1); the lowest bidegree
    # the generator phase reads is the v1 step below the window, (lo - q, -1)
    # on chain lo - q - 1, so no chain whose bidegrees all lie below
    # lo - q - 1 is staged; the whole-band sweep stages some
    assert min(lazy) >= lo - q - 1 > min(whole) + 1


def test_the_dense_engine_builds_the_basis_only_of_the_chains_it_reads(monkeypatch):
    page = SSPage(CTX3, 2, 1, Variant.TATE, (-24, 24), geo(3, 0, 2) + 1)
    made = []
    chain_basis = nygaard._chain_basis

    def counting(runs, key, q, v, basis, position):
        before = len(position)
        chain_basis(runs, key, q, v, basis, position)
        made.append(len(position) - before)

    monkeypatch.setattr(nygaard, "_chain_basis", counting)
    run_to_einf_dense(page, page.window)
    # the guard still counts the whole band; the basis holds only the
    # chains the generators, their v1 steps and torsion climbs read
    assert 0 < sum(made) < _band_size(page)


def test_bad_inputs():
    with pytest.raises(InputError):
        SSPage(CTX3, -1, 0, Variant.HFP, (0, 10), 4)
    with pytest.raises(InputError):
        SSPage(CTX3, 1, 0, Variant.HFP, (10, 0), 4)
    with pytest.raises(InputError):
        SSPage(CTX3, 1, 0, Variant.HFP, (0, 10), v1_cutoff=0)


def test_ladder_guard_fires_before_any_ladder(monkeypatch):
    # SSPage._build allocates the alive columns, the only per-ladder state
    built = []
    build = SSPage._build

    def counting_build(page):
        built.append(page)
        build(page)

    monkeypatch.setattr(SSPage, "_build", counting_build)
    args = (CTX3, 1, 1, Variant.HFP, (0, 30), default_v1_cutoff(CTX3, 1))
    page = SSPage(*args)
    assert built == [page] and all(seg.lo is not None for seg in page._all_segments())
    placed = SSPage.placed(*args)
    assert placed.ladder_count == page.ladder_count == len(page.ladders) > 10
    assert all(seg.lo is None for seg in placed._all_segments())
    built.clear()
    monkeypatch.setattr(nygaard, "MAX_LADDERS", 10)
    with pytest.raises(ResourceError):
        SSPage(*args)
    with pytest.raises(ResourceError):
        SSPage.placed(*args)
    assert built == []


def _is_gapped(ivs):
    return all(lo < hi for lo, hi in ivs) and all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))


@pytest.mark.parametrize("variant", list(Variant))
def test_dim_table_counts_iter_alive(variant):
    for p, n, ell, window in ((3, 1, 1, (-10, 40)), (2, 2, 1, (0, 30)), (5, 1, 2, (-20, 60))):
        ctx = PrimeContext(p)
        res = run_to_einf(SSPage(ctx, n, ell, variant, window, 5))
        assert all(_is_gapped(lad.alive) for lad in res.page.ladders.values())
        walked = Counter((m.bidegree(ctx).d, m.line) for m, _h in iter_alive(res, window))
        assert res.dim_table(window).entries == dict(walked)


def _reference_sweep(page):
    """Every ladder at every stage, with the valuation test read off the
    stage formulas and the shift off _base_of; cuts come from the
    pre-stage state.  Runs on a {key: set of alive heights} dict read from
    the fresh page, and returns each set as its maximal runs [lo, hi)."""
    p, c = page.ctx.p, page._twist_coeff
    alive = {key: {h for lo, hi in lad.alive for h in range(lo, hi)} for key, lad in page.ladders.items()}
    for stage in page.stages:
        k, G, P = page.schedule[stage]
        cuts = []
        for (e1, e2, delta), A in alive.items():
            if k is None:
                if e2 != 1:
                    continue
                tkey = (e1, 0, delta + P)
            else:
                if e1 == 1 or vp(p, delta + c) != k:
                    continue
                tkey = (1, e2, delta + P)
            if tkey not in alive:
                continue
            s = G + P + _base_of(page.variant, delta)[0] - _base_of(page.variant, delta + P)[0]
            dead = A & {h - s for h in alive[tkey]}
            cuts.append(((e1, e2, delta), tkey, dead, {h + s for h in dead}))
        for key, tkey, dead, tdead in cuts:
            alive[key] -= dead
            alive[tkey] -= tdead
    return {key: _runs(heights) for key, heights in alive.items()}


def _runs(heights):
    """The maximal runs [lo, hi) of a set of integers, ascending."""
    out = []
    for h in sorted(heights):
        if out and out[-1][1] == h:
            out[-1] = (out[-1][0], h + 1)
        else:
            out.append((h, h + 1))
    return out


def _base_of(variant, delta):
    if variant is Variant.HFP:
        return (max(delta, 0), max(-delta, 0))
    return (delta, 0) if variant is Variant.TATE else (0, -delta)


@pytest.mark.parametrize("side", ["source", "target"])
def test_a_stage_that_cuts_a_split_ladder_raises_naming_it(side):
    # Split one T0 pair's source or target in the middle of the heights the
    # pair would cut: the sweep must raise, naming the stage and that ladder.
    page = SSPage(CTX3, 2, 1, Variant.HFP, (0, 60), 6)
    _k, G, P = page.schedule["T0"]
    for (e1, e2, delta), src in page.ladders.items():
        tgt = page.ladders.get((1, e2, delta + P))
        if e1 or tgt is None or vp(3, delta + page._twist_coeff) != 0:
            continue
        s = G + P + src.base_a - tgt.base_a
        lo, hi = max(src.h_lo, tgt.h_lo - s), min(src.h_cap, tgt.h_cap - s)
        if hi - lo >= 3:
            break
    lad, mid = (src, (lo + hi) // 2) if side == "source" else (tgt, (lo + hi) // 2 + s)
    seg = page._segment_of(lad.e1, lad.e2, lad.delta)
    seg.store(lad.delta - seg.deltas.start, [(lad.h_lo, mid), (mid + 1, lad.h_cap)])
    key = (lad.e1, lad.e2, lad.delta)
    with pytest.raises(InvariantError, match=re.escape(f"stage T0 cuts the split ladder {key}")):
        run_to_einf(page)


@st.composite
def _split_pages(draw):
    """(p, n, twist, variant, window, cutoff): p in {2, 3, 5, 7}, n <= 4,
    twist <= p^2, a window inside [-300, 300] and a cutoff from 1 to
    2*geo(p, 0, n+1) + 2."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 4))
    lo = draw(st.integers(-300, 300))
    return (p, n, draw(st.integers(0, p * p)), draw(st.sampled_from(list(Variant))), (lo, draw(st.integers(lo, 300))),
            draw(st.integers(1, 2 * geo(p, 0, n + 1) + 2)))


@settings(max_examples=200)
@given(_split_pages())
def test_no_stage_cuts_a_split_ladder(draw):
    # run_stage raises InvariantError when a pair would cut a split ladder
    p, n, ell, variant, window, cutoff = draw
    page = run_to_einf(SSPage(PrimeContext(p), n, ell, variant, window, cutoff)).page
    for seg in page._all_segments():
        for i, ((lo, _x), (_y, hi)) in seg.split.items():
            # a split keeps both ends of the ladder's modeled heights
            assert (lo, hi) == page._heights(seg.K + seg.stem_slope * (seg.deltas.start + i))


def _minus(interval, cut) -> tuple:
    """The intervals of [lo, hi) left after removing [dlo, dhi) from it."""
    (lo, hi), (dlo, dhi) = interval, cut
    if dlo >= dhi:
        return (interval,)
    return tuple((a, b) for a, b in ((lo, max(lo, dlo)), (min(hi, dhi), hi)) if a < b)


@settings(max_examples=150)
@given(_split_pages())
def test_t_stage_pairs_hold_their_built_intervals(draw):
    # Each T stage visits ladders no earlier stage cut: every (source,
    # target) pair still holds the interval SSPage._heights gave it, and the
    # stage removes [max(alo, blo - s), min(ahi, bhi - s)) from the source
    # and that interval shifted by s from the target.  Nothing is claimed
    # of U, whose pairs are mostly cut before it runs.
    p, n, ell, variant, window, cutoff = draw
    page = SSPage(PrimeContext(p), n, ell, variant, window, cutoff)

    def built(seg, delta):
        return page._heights(seg.K + seg.stem_slope * delta)

    for stage in page.stages[:-1]:
        _k, G, P = page.schedule[stage]
        expected = []  # (segment, index, intervals after the stage)
        for _coeff, src, deltas, tkey in page._stage_sources(stage):
            for tgt in page.segments[tkey]:
                for delta in deltas:
                    if delta + P not in tgt.deltas:
                        continue
                    i, j = delta - src.deltas.start, delta + P - tgt.deltas.start
                    (alo, ahi), (blo, bhi) = built(src, delta), built(tgt, delta + P)
                    assert src.intervals(i) == ((alo, ahi),) and tgt.intervals(j) == ((blo, bhi),), (stage, delta)
                    s = G + P + src.a_slope * delta - tgt.a_slope * (delta + P)
                    dlo, dhi = max(alo, blo - s), min(ahi, bhi - s)
                    expected.append((src, i, _minus((alo, ahi), (dlo, dhi))))
                    expected.append((tgt, j, _minus((blo, bhi), (dlo + s, dhi + s))))
        page.run_stage(stage)
        for seg, i, intervals in expected:
            assert seg.intervals(i) == intervals, (stage, seg.e1, seg.e2, seg.deltas.start + i)


PAGE_DRAWS = st.tuples(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from(list(Variant)),
    st.integers(-40, 60),
    st.integers(0, 50),
    st.integers(1, 6),
)


@settings(max_examples=60)
@given(PAGE_DRAWS)
def test_residue_class_sweep_matches_every_ladder_sweep(draw):
    p, n, ell, variant, lo, width, cutoff = draw
    ctx = PrimeContext(p)
    window = (lo, lo + width)
    page = SSPage(ctx, n, ell, variant, window, cutoff)
    assert list(page.ladders) == sorted(page.ladders)
    for (_e1, _e2, delta), lad in page.ladders.items():
        assert (lad.base_a, lad.base_b) == _base_of(page.variant, delta)
        assert Monomial(n, ell, *_class(lad, 0)).bidegree(ctx).d == lad.stem0
        assert lad.alive == [(lad.h_lo, lad.h_cap)] and lad.h_lo < lad.h_cap
    reference = _reference_sweep(SSPage(ctx, n, ell, variant, window, cutoff))
    res = run_to_einf(page)
    assert {k: lad.alive for k, lad in page.ladders.items()} == reference
    # the closed forms, at a cutoff that certifies every torsion (AC1);
    # raises on a difference
    verify._compare_page(SSPage.placed(ctx, n, ell, variant, window, max(cutoff, geo(p, 0, n) + 1)))
    if sum(lad.h_cap - lad.h_lo for lad in page.ladders.values()) <= 4000:
        # Matched by representative: a class either engine leaves
        # uncertified (its chain runs into the cutoff or the modeled band)
        # carries a lower bound on the other engine's torsion.
        dense = run_to_einf_dense(page, window)  # reads the segments, not the alive sets
        ladder = {f"dense:L{n}:{cl.representative}": cl for cl in res.classes(window)}
        assert sorted(ladder) == sorted(g.label for g in dense)
        for g in dense:
            cl = ladder[g.label]
            assert cl.bidegree == g.bidegree
            if cl.certified and g.certified:
                assert cl.v1_torsion == g.torsion
            elif g.certified:
                assert cl.v1_torsion <= g.torsion
            elif cl.certified:
                assert g.torsion <= cl.v1_torsion


def _counted_reference(res, window) -> tuple:
    """(dims, certified generators, first uncertified EInfClass) of a run
    page on a stem window, read off _survivors height by height.  A torsion
    is exact when its chain dies by the v1 cutoff and below the end of its
    ladder's modeled heights, as SSPage._heights gives it."""
    page = res.page
    q, cut = page.ctx.q, page.v1_cutoff
    dims, gens, uncertified = Counter(), Counter(), None
    for seg, delta, stem0, hs, ilo, ihi in res._survivors(window):
        line = seg.e1 - seg.e2
        dims.update((stem0 + h * q, line) for h in hs)
        if hs.start != ilo:
            continue  # the interval's generator lies below the window
        if ihi <= cut and ihi < page._heights(stem0)[1]:
            gens[(stem0 + ilo * q, line, ihi - ilo)] += 1
        elif uncertified is None:
            rep = Monomial(page.n, page.ell, seg.a_slope * delta + ilo, seg.b_slope * delta + ilo, seg.e1, seg.e2)
            uncertified = EInfClass(rep, Bidegree(stem0 + ilo * q, line), min(ihi, cut) - ilo, False)
    return dict(dims), gens, uncertified


@settings(max_examples=150)
@given(PAGE_DRAWS, st.integers(0, 50), st.integers(0, 50))
@example((3, 2, 1, Variant.HFP, -33, 27, 6), 0, 0)  # four split ladders survive in the window
@example((2, 2, 4, Variant.HFP, 47, 6, 5), 2, 1)  # three split ladders, a window inside the page's
@example((2, 3, 0, Variant.TATE, 32, 39, 5), 0, 0)  # twelve split ladders, certified and uncertified torsions
def test_counted_walk_matches_the_object_readers(draw, cut_lo, cut_hi):
    # counted walks the columns itself; _survivors, the reader of classes,
    # witnesses it on any window inside the page's, height by height
    p, n, ell, variant, lo, width, cutoff = draw
    res = run_to_einf(SSPage(PrimeContext(p), n, ell, variant, (lo, lo + width), cutoff))
    window = (lo + min(cut_lo, width), lo + width - min(cut_hi, width - min(cut_lo, width)))
    table, gens, uncertified = res.counted(window)
    dims, ref_gens, ref_uncertified = _counted_reference(res, window)
    assert list(table.entries.items()) == list(dims.items())  # the same cells, in the same order
    assert list(gens.items()) == list(ref_gens.items())
    assert uncertified == ref_uncertified
    assert table == res.dim_table(window) and (table.window, table.params) == (window, {"p": p, "n": n, "k": None})
    classes = res.classes(window)
    assert gens == Counter((c.bidegree.d, c.bidegree.s, c.v1_torsion) for c in classes if c.certified)
    assert uncertified == next((c for c in classes if not c.certified), None)


@settings(max_examples=100)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 4), st.integers(0, 6), st.sampled_from(list(Variant)),
       st.integers(-300, 300), st.integers(0, 300), st.integers(1, 200))
def test_a_chain_dead_by_the_cutoff_dies_inside_the_modeled_heights(p, n, ell, variant, lo, width, cutoff):
    # EInfResult._certified asks only top <= V: every ladder its readers can
    # read, the bottom stems in read_stems that _interval admits for life
    # and _reach walks for counted, classes and land_orbits, models heights
    # past V, since its bottom stem is at most hi and hi_pad = hi + 2*p*V
    page = SSPage.placed(PrimeContext(p), n, ell, variant, (lo, lo + width), cutoff)
    q = page.ctx.q
    assert page.read_stems[1] == page.window[1]
    for seg, indices in page._reach(*page.read_stems):
        for i in indices:
            stem0 = seg.K + seg.stem_slope * (seg.deltas.start + i)
            assert (page.hi_pad - stem0) // q + 1 > cutoff


@pytest.mark.parametrize("p, n, variant, window", [(3, 1, Variant.HFP, (0, 40)), (3, 2, Variant.TATE, (-20, 40)),
                                                   (2, 2, Variant.MUINV, (-10, 30))])
def test_an_uncertified_torsion_fails_the_page_check_by_name(p, n, variant, window, monkeypatch):
    ctx = PrimeContext(p)
    built = []
    monomial = nygaard.Monomial
    monkeypatch.setattr(nygaard, "Monomial", lambda *args: built.append(args) or monomial(*args))
    certifying = geo(p, 0, n) + 1
    verify._compare_page(SSPage.placed(ctx, n, 1, variant, window, certifying))
    assert built == []  # a passing check names no class
    res = run_to_einf(SSPage(ctx, n, 1, variant, window, 2))  # 2 < certifying
    first = next(c for c in res.classes(window) if not c.certified)
    message = f"uncertified torsion at {tuple(first.bidegree)} ({first.representative})"
    with pytest.raises(InvariantError, match=re.escape(message)):
        verify._compare_page(SSPage.placed(ctx, n, 1, variant, window, 2))


def _band_page(*args) -> SSPage:
    """SSPage(*args) with its cone step made the identity, so it sweeps
    every ladder of its band."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SSPage, "_cone", lambda page, band, stem_lo, stem_hi: band)
        return SSPage(*args)


def _landed(res, window) -> dict:
    """The orbit key lists EInfResult.land_orbits lands for a stem window."""
    keys: dict = {}
    res.land_orbits(window, keys)
    return keys


def _read_alive(page) -> dict:
    """{(e1, e2, delta): alive intervals} over the ladders a reader of the
    page's window reads, those SSPage._reach gives for its bottom stems."""
    reach = page._reach(*page.read_stems)
    return {(seg.e1, seg.e2, seg.deltas.start + i): seg.intervals(i) for seg, indices in reach for i in indices}


@st.composite
def _cone_pages(draw):
    """SSPage arguments: p in {2, 3, 5, 7}, n <= 4, twist <= 6, any variant,
    a window inside [-300, 300] and a cutoff up to 40; or a page of the
    PageSet a TR oracle builds for twist l and stems up to hi, at its
    cutoff tors_bound + 4."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    if draw(st.booleans()):
        return (p, draw(st.integers(0, 4)), draw(st.integers(0, 6)), draw(st.sampled_from(list(Variant))), (lo, hi),
                draw(st.integers(1, 40)))
    ell = draw(st.sampled_from([ell for ell in range(1, 7) if ell % p]))
    m_max = -1  # as TrOracle at TRUNC_INF: the levels that reach stem hi
    while 2 * ell * p ** (m_max + 1) <= hi:
        m_max += 1
    n = draw(st.integers(0, max(m_max + 2, 0)))
    variant = draw(st.sampled_from([Variant.HFP, Variant.TATE] if n else [Variant.HFP]))
    return p, n, ell, variant, (min(lo, 0), hi + 1), _window_torsion_bound(p, ell, hi, m_max) + 4


@settings(max_examples=150, derandomize=True)
@given(_cone_pages())
def test_the_cone_sweep_reads_as_the_band_sweep(draw):
    # The page sweeps only the cone of its readers; the same page with every
    # band ladder swept must give each reader the same answer, and so must
    # the set-based reference sweep over the band, ladder for ladder.
    p, n, ell, variant, window, cutoff = draw
    args = (PrimeContext(p), n, ell, variant, window, cutoff)
    page = SSPage(*args)
    band = _band_page(*args)
    assert page.ladder_count <= band.ladder_count
    res, full = _outcome(run_to_einf, page), _outcome(run_to_einf, band)
    if isinstance(res, tuple) or isinstance(full, tuple):
        assert res == full  # the same split-ladder cut
        return
    read = _read_alive(page)
    assert read == _read_alive(band)
    for reader in (EInfResult.counted, EInfResult.classes, _landed):
        assert _outcome(reader, res, window) == _outcome(reader, full, window)
    if sum(lad.h_cap - lad.h_lo for lad in band.ladders.values()) <= 20_000:
        reference = _reference_sweep(_band_page(*args))
        assert {key: list(alive) for key, alive in read.items()} == {key: reference[key] for key in read}


def test_a_ladder_the_page_did_not_sweep_has_no_answer():
    args = (CTX3, 2, 1, Variant.HFP, (0, 40), 6)
    page, band = SSPage(*args), _band_page(*args)
    res = run_to_einf(page)
    unswept = [key for key in band.ladders if key not in page.ladders]
    assert unswept and page.ladder_count < band.ladder_count
    e1, e2, delta = unswept[0]
    base_a, base_b = _base_of(page.variant, delta)
    cls = (2, base_a, base_b, e1, e2)
    for read in (res.alive, res.life):
        with pytest.raises(InvariantError, match=re.escape(f"class {cls} lies on a ladder page")):
            read(cls)
    # a class off the band is still dead
    assert page._segment_of(0, 0, 10**6) is None and not res.alive((2, 10**6, 0, 0, 0))


def test_readers_refuse_to_read_outside_their_page():
    # A ladder swept only as a partner of the read ones need not have its
    # own partners swept, so the page answers only inside its window.
    page = SSPage(CTX3, 2, 1, Variant.HFP, (0, 40), 6)
    res = run_to_einf(page)
    for window in ((-1, 40), (0, 41), (-10, 50)):
        for read in (res.counted, res.classes, res.dim_table, lambda w: _landed(res, w)):
            with pytest.raises(InputError, match=re.escape(f"window {window} is not inside the page window (0, 40)")):
                read(window)
    assert res.dim_table(page.window).entries and res.classes((4, 36))
    read_lo, read_hi = page.read_stems
    outside = [(seg, delta) for seg in page._all_segments() for delta in seg.deltas
               if not read_lo <= seg.K + seg.stem_slope * delta <= read_hi]
    assert outside
    for seg, delta in outside[:: max(len(outside) // 8, 1)]:
        cls = (2, seg.a_slope * delta, seg.b_slope * delta, seg.e1, seg.e2)
        for read in (res.alive, res.life):
            with pytest.raises(InvariantError, match=re.escape(f"class {cls} lies on a ladder with bottom stem")):
                read(cls)


def test_a_page_adds_almost_no_tracked_objects():
    # The alive state is two array columns per segment, which the garbage
    # collector does not track; a container per ladder made every full
    # collection walk every ladder of every page held.  The window is wide
    # because the page sweeps only the cone of its readers: at (-4, 600)
    # it sweeps fewer than half of the ladders asserted below.
    gc.collect()
    before = len(gc.get_objects())
    res = run_to_einf(SSPage(PrimeContext(7), 3, 1, Variant.TATE, (-4, 85_000), default_v1_cutoff(PrimeContext(7), 3)))
    gc.collect()
    added = len(gc.get_objects()) - before
    assert res.page.ladder_count > 300_000
    assert added < res.page.ladder_count // 100


TRANSLATION_DRAWS = st.tuples(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(1, 3),
    st.sampled_from(list(Variant)),
    st.integers(-40, 40),
    st.integers(0, 40),
    st.integers(1, 6),
)


@settings(max_examples=40)
@given(TRANSLATION_DRAWS)
def test_congruent_twists_give_translated_pages(draw):
    # A page depends on the twist l only through the stem offset 2*l*p^n and
    # through c = -l*n*(p-1)*p^(n-1) mod p^n, which n*l mod p fixes.
    p, n, ell, j, variant, lo, width, cutoff = draw
    ell2 = ell + j if n % p == 0 else ell + j * p
    assert (n * ell - n * ell2) % p == 0
    ctx = PrimeContext(p)
    shift = 2 * (ell2 - ell) * p**n
    # each page is read on its own window, which reaches 10 stems below lo
    res = run_to_einf(SSPage(ctx, n, ell, variant, (lo - 10, lo + width), cutoff))
    res2 = run_to_einf(SSPage(ctx, n, ell2, variant, (lo - 10 + shift, lo + width + shift), cutoff))
    alive = {key: lad.alive for key, lad in res.page.ladders.items()}
    assert {key: lad.alive for key, lad in res2.page.ladders.items()} == alive
    assert any(alive.values())
    moved = {(d - shift, s): k for (d, s), k in res2.dim_table(res2.page.window).entries.items()}
    assert moved == res.dim_table(res.page.window).entries
