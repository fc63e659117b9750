import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab import nygaard
from synlab.errors import InputError, ResourceError, StateError
from synlab.graded import Monomial, PrimeContext, geo, vp
from synlab.nygaard import (
    SSPage,
    StageMap,
    Variant,
    _interval_intersect,
    _interval_subtract,
    divisibility,
    run_to_einf,
    run_to_einf_dense,
)

CTX3 = PrimeContext(3)


def test_ladder_view_of_basis_cutoff():
    # window stems 0..6 with cutoff 2: the delta=0 ladder holds exactly 1, t*mu
    page = SSPage(CTX3, 0, 0, Variant.HFP, (0, 6), v1_cutoff=2)
    lad = page.ladders[(0, 0, 0)]
    monos = [lad.monomial(page, h) for h in range(page.v1_cutoff)]
    assert monos == [Monomial(), Monomial(t_exp=1, mu_exp=1)]
    # bidegree-level basis view honors the cutoff and the window pad
    assert Monomial() in page.basis_monomials(0, 0)
    assert Monomial(t_exp=1, mu_exp=1) in page.basis_monomials(CTX3.q, 0)
    for stem in range(page.lo_pad, page.hi_pad + 1):
        for line in (-1, 0, 1):
            for m in page.basis_monomials(stem, line):
                assert divisibility(page.variant, m.t_exp, m.mu_exp) < 2
    assert Monomial(t_exp=2, mu_exp=2) not in page.basis_monomials(2 * CTX3.q, 0)


def test_page_bottom_class_stem():
    page = SSPage(CTX3, 1, 1, Variant.HFP, (0, 12), v1_cutoff=2)
    lad = page.ladders[(0, 0, 0)]
    assert lad.stem0 == 6  # se(l p^n) sits in stem 2*l*p^n


def test_tate_basis_when_cutoff_one():
    page = SSPage(CTX3, 1, 0, Variant.TATE, (0, 0), v1_cutoff=1)
    basis = page.basis_monomials(0, 0)
    assert Monomial(level=1) in basis
    assert all(divisibility(Variant.TATE, m.t_exp, m.mu_exp) < 1 for m in basis)


def test_divisibility_per_variant():
    assert divisibility(Variant.HFP, 3, 1) == 1
    assert divisibility(Variant.TATE, -3, 2) == 2
    assert divisibility(Variant.MUINV, 2, -5) == 2


def test_stage_t0_on_t():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    d = StageMap(page, "T0")
    coeff, tgt = d.on_monomial(Monomial(level=1, t_exp=1))
    assert coeff == 1 and tgt == Monomial(level=1, t_exp=4, lam=1)


def test_stage_t0_on_mu_leibniz():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    d = StageMap(page, "T0")
    coeff, tgt = d.on_monomial(Monomial(level=1, mu_exp=1))
    assert coeff == 3 - 1  # -1 mod 3
    assert tgt == Monomial(level=1, t_exp=3, mu_exp=1, lam=1)


def test_stage_u_rule():
    page = SSPage(CTX3, 1, 0, Variant.HFP, (-6, 12), v1_cutoff=4)
    page.run_stage("T0")
    d = StageMap(page, "U")
    coeff, tgt = d.on_monomial(Monomial(level=1, u_exp=1))
    assert coeff == 1 and tgt == Monomial(level=1, t_exp=4, mu_exp=1)  # v1 t^3


def test_twisted_coefficient_on_bottom_class():
    # d(se) at stage T_{n-1} carries the unit l*n; it dies when p | l*n
    page = SSPage(CTX3, 1, 1, Variant.HFP, (0, 12), v1_cutoff=2)
    assert page.stage_image("T0", (0, 0, 0))[0] == 1  # -l*n*(p-1) = 1 mod 3
    page3 = SSPage(CTX3, 1, 3, Variant.HFP, (0, 30), v1_cutoff=2)
    assert page3.stage_image("T0", (0, 0, 0)) is None


def test_stage_order_enforced():
    page = SSPage(CTX3, 2, 0, Variant.HFP, (0, 10), v1_cutoff=2)
    with pytest.raises(StateError):
        page.run_stage("U")
    page.run_stage("T0")
    with pytest.raises(StateError):
        page.run_stage("T0")
    with pytest.raises(StateError):
        StageMap(page, "T0")
    page.run_stage("T1")
    page.run_stage("U")


def test_differential_bidegree_shift_and_dd_zero():
    page = SSPage(CTX3, 1, 1, Variant.HFP, (-8, 24), v1_cutoff=5)
    d = StageMap(page, "T0")
    for stem in range(-4, 20):
        for line in (-1, 0, 1, 2):
            m1 = d.matrix(stem, line)
            m2 = d.matrix(stem - 1, line + 1)
            assert m2.compose(m1).is_zero()
            # rank-nullity bookkeeping on the same matrix
            from synlab.fplinalg import kernel_basis, rank

            assert rank(m1) + len(kernel_basis(m1)) == m1.cols
    for mono in page.basis_monomials(5, 0):
        img = d.on_monomial(mono)
        if img is not None:
            _c, tgt = img
            src_bid = mono.bidegree(CTX3)
            tgt_bid = tgt.bidegree(CTX3)
            assert tgt_bid.d == src_bid.d - 1 and tgt_bid.s == src_bid.s + 1


def test_t_stage_images_are_lambda_multiples_and_vanish_on_them():
    page = SSPage(CTX3, 2, 1, Variant.HFP, (0, 30), v1_cutoff=3)
    d = StageMap(page, "T0")
    for key, lad in page.ladders.items():
        mono = lad.monomial(page, lad.h_lo)
        img = d.on_monomial(mono)
        if mono.lam == 1:
            assert img is None
        elif img is not None:
            assert img[1].lam == 1


def test_n0_pattern():
    page = SSPage(CTX3, 0, 0, Variant.HFP, (0, 14), v1_cutoff=3)
    res = run_to_einf(page)
    totals = res.dim_table((0, 14)).stem_totals()
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
    # t^(p^n) is a permanent cycle: the would-be stage T_n kills nothing
    for n, ell in ((1, 0), (1, 1), (2, 1)):
        page = SSPage(CTX3, n, ell, Variant.HFP, (0, 40), v1_cutoff=4)
        res = run_to_einf(page)
        p = 3
        c = page._twist_coeff
        G, P = geo(p, 1, n), p ** (n + 1)
        for mono, h in res.iter_alive((4, 36)):
            if mono.lam or vp(p, (mono.t_exp - mono.mu_exp) + c) != n:
                continue
            tgt = Monomial(n, ell, mono.t_exp + G + P, mono.mu_exp + G, 1, mono.u_exp)
            assert not res.alive(tgt)


def test_cutoff_doubling_stable():
    for variant in (Variant.HFP, Variant.TATE, Variant.MUINV):
        base = run_to_einf(SSPage(CTX3, 1, 1, variant, (-10, 20), v1_cutoff=5))
        double = run_to_einf(SSPage(CTX3, 1, 1, variant, (-10, 20), v1_cutoff=10))
        assert base.dim_table((-10, 20)).entries == double.dim_table((-10, 20)).entries
        sig = lambda r: sorted((tuple(c.bidegree), c.v1_torsion) for c in r.classes((-10, 20)) if c.certified)
        assert sig(base) == sig(double)


def test_ladder_engine_matches_dense_engine():
    rng = random.Random(5)
    cases = [
        (3, 1, 0, Variant.HFP),
        (3, 1, 1, Variant.HFP),
        (3, 1, 1, Variant.TATE),
        (3, 1, 0, Variant.MUINV),
        (2, 2, 1, Variant.HFP),
        (2, 1, 1, Variant.MUINV),
        (5, 1, 2, Variant.HFP),
    ]
    for p, n, ell, variant in cases:
        ctx = PrimeContext(p)
        window = (0, 8 * p)
        V = geo(p, 0, n) + 1
        ladder = run_to_einf(SSPage(ctx, n, ell, variant, window, V))
        dense = run_to_einf_dense(SSPage(ctx, n, ell, variant, window, V), window)
        a = sorted((tuple(c.bidegree), c.v1_torsion) for c in ladder.classes(window) if c.certified)
        b = sorted((tuple(g.bidegree), g.torsion) for g in dense if g.certified)
        assert a == b, (p, n, ell, variant)


def test_resource_guard_dense():
    page = SSPage(CTX3, 2, 1, Variant.HFP, (-500, 500), v1_cutoff=40)
    with pytest.raises(ResourceError):
        run_to_einf_dense(page, (-500, 500))


def test_bad_inputs():
    with pytest.raises(InputError):
        SSPage(CTX3, -1, 0, Variant.HFP, (0, 10))
    with pytest.raises(InputError):
        SSPage(CTX3, 1, 0, Variant.HFP, (10, 0))
    with pytest.raises(InputError):
        SSPage(CTX3, 1, 0, Variant.HFP, (0, 10), v1_cutoff=0)


def test_ladder_guard_fires_before_any_ladder(monkeypatch):
    built = []

    class CountingLadder(nygaard.Ladder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(nygaard, "MAX_LADDERS", 10)
    monkeypatch.setattr(nygaard, "Ladder", CountingLadder)
    with pytest.raises(ResourceError):
        SSPage(CTX3, 1, 1, Variant.HFP, (0, 30))
    assert built == []


def _gapped_from_steps(start, steps):
    out, cur = [], start
    for gap, length in steps:
        out.append((cur + gap, cur + gap + length))
        cur += gap + length
    return out


GAPPED = st.builds(
    _gapped_from_steps,
    st.integers(-20, 20),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=6),
)


def _heights(ivs):
    return {h for lo, hi in ivs for h in range(lo, hi)}


def _is_gapped(ivs):
    return all(lo < hi for lo, hi in ivs) and all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(GAPPED, GAPPED)
def test_interval_helpers_match_sets_and_stay_gapped(A, B):
    meet = _interval_intersect(A, B)
    rest = _interval_subtract(A, B)
    assert _heights(meet) == _heights(A) & _heights(B)
    assert _heights(rest) == _heights(A) - _heights(B)
    assert _is_gapped(meet) and _is_gapped(rest)


@pytest.mark.parametrize("variant", list(Variant))
def test_dim_table_counts_iter_alive(variant):
    for p, n, ell, window in ((3, 1, 1, (-10, 40)), (2, 2, 1, (0, 30)), (5, 1, 2, (-20, 60))):
        ctx = PrimeContext(p)
        res = run_to_einf(SSPage(ctx, n, ell, variant, window, 5))
        assert all(_is_gapped(lad.alive) for lad in res.page.ladders.values())
        walked = Counter((m.stem(ctx), m.line) for m, _h in res.iter_alive(window))
        assert res.dim_table(window).entries == dict(walked)
