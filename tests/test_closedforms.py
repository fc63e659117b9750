from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab.closedforms import (
    TRUNC_INF,
    FamilyTag,
    Progression,
    einf_closed,
    enumerate_families,
    family_count,
    family_torsion,
    repeated_leading,
    tr_closed_decomposition,
)
from synlab import closedforms
from synlab.errors import InputError, ResourceError
from synlab.graded import Monomial, PrimeContext, orbit_dims, orbit_stems, vp
from synlab.nygaard import Variant

CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)


def gens_at(dec, stem, line):
    """{(stem, line, torsion): multiplicity} of a closed page at one bidegree."""
    return {k: m for k, m in dec.items() if k[:2] == (stem, line)}


def test_hfp_unit_torsion():
    dec = einf_closed(CTX3, 1, 0, Variant.HFP, (0, 10))
    # the unit 1, torsion 1 + p, and l1 u t^2, torsion p - 2
    assert gens_at(dec, 0, 0) == {(0, 0, 4): 1, (0, 0, 1): 1}


def test_tate_periodic_generators():
    dec = einf_closed(CTX3, 2, 0, Variant.TATE, (-40, 40))
    # the pure t^i (i = 0 mod p^n) are the line-0 classes at stems 2p^n Z;
    # the other line-0 classes, l1 u t^i with vp(i) = 1, sit at 4 - 2i
    pure = {k: m for k, m in dec.items() if k[1] == 0 and k[0] % 18 == 0}
    assert pure == {(d, 0, 4): 1 for d in (-36, -18, 0, 18, 36)}  # t^{+-p^n}-periodic, torsion 1 + p


def test_twisted_boundary_generator():
    # i = 2 is congruent to -n*l*p^(n-1) mod p^n; torsion 1 + (p^n - i)
    dec = einf_closed(CTX3, 1, 1, Variant.HFP, (0, 10))
    assert gens_at(dec, 2, 0) == {(2, 0, 2): 1}  # se(1p^1) t^2


def test_level_zero_pages():
    hfp = einf_closed(CTX3, 0, 1, Variant.HFP, (0, 20))
    assert {k[2] for k in hfp} == {1} and set(hfp.values()) == {1}
    assert {k[:2] for k in hfp} == {(2, 0), (7, 1), (8, 0), (13, 1), (14, 0), (19, 1), (20, 0)}
    assert einf_closed(CTX3, 0, 0, Variant.TATE, (-20, 20)) == Counter()


@pytest.mark.parametrize("p,V,half,count", [(3, 14, 81, 75), (5, 32, 250, 158)])
def test_closed_window_reaches_as_far_as_the_page(monkeypatch, p, V, half, count):
    # einf_closed_counted tallies the generators down to q*(V - 1) stems
    # below the window, the reach of EInfResult._survivors: each one has a
    # stem in the window at some height below the cutoff V
    ctx, window = PrimeContext(p), (-half, half)
    tallied = []
    einf = closedforms.einf_closed
    monkeypatch.setattr(closedforms, "einf_closed", lambda *args: tallied.append(einf(*args)) or tallied[-1])
    closedforms.einf_closed_counted(ctx, 2, 1, Variant.HFP, window, V)
    assert sum(tallied[0].values()) == count
    assert all(orbit_stems(ctx.q, d, V, window) for d, _s, _t in tallied[0])


@pytest.mark.parametrize("n, ell", [(-1, 0), (1, -1)])
def test_closed_page_refuses_a_negative_level_or_twist(n, ell):
    with pytest.raises(InputError, match="need n >= 0 and twist >= 0"):
        einf_closed(CTX3, n, ell, Variant.HFP, (0, 10))


def test_enumerate_c_family_starts_at_level_one():
    elems = enumerate_families(CTX3, 1, TRUNC_INF, (0, 40))
    c0 = [e for e in elems if e.tag is FamilyTag.C and e.n == 0]
    assert c0 == []  # the level-0 page has no t^i l1 u classes
    c1 = [e for e in elems if e.tag is FamilyTag.C and e.n == 1]
    assert sorted({e.index for e in c1}) == [1]  # v_3(i + l) = 0 forces i = 1
    assert {e.torsion for e in c1} == {2}  # p - i


def test_enumerate_a_family_empty_at_n1_l1():
    elems = enumerate_families(CTX3, 1, TRUNC_INF, (0, 300))
    assert [e for e in elems if e.tag is FamilyTag.A and e.n == 1] == []


def test_enumerate_f_family_truncated():
    elems = enumerate_families(CTX3, 1, 1, (0, 80))
    fs = [e for e in elems if e.tag is FamilyTag.F]
    assert fs and all(e.n == 1 for e in fs)
    assert all(e.index > 2 and e.index % 3 == 1 for e in fs)
    assert all(e.torsion == 4 for e in fs)  # 1 + p


def test_suspension_chain_included_at_level_zero():
    # j = 0 at n = 0: the bottom class of the twist-l summand
    elems = enumerate_families(CTX3, 1, TRUNC_INF, (0, 10))
    bottom = [e for e in elems if e.n == 0 and e.index == 0 and e.e == 0]
    assert len(bottom) == 1
    el = bottom[0]
    assert el.tag is FamilyTag.B and el.bid == (2, 0)
    assert [cls[0] for cls in el.components] == [0, 1]
    assert el.torsion == 2  # comp2 lives in the short t-range


def test_u_chain_included_at_level_one():
    # j = 0 at n = 1: the class se*l1*u_1
    elems = enumerate_families(CTX3, 1, TRUNC_INF, (0, 40))
    j0 = [e for e in elems if e.n == 1 and e.index == 0 and e.tag in (FamilyTag.D, FamilyTag.E)]
    assert len(j0) == 2  # u-exponent 0 and 1
    assert {e.tag for e in j0} == {FamilyTag.E}  # l(p-1) < p at l=1
    assert {e.torsion for e in j0} == {2 * 3}  # geo(1,1) + p^2 - p*l*(p-1)


def test_delta_component_emitted_when_in_range():
    # B chain with Kronecker delta: p | n+1 at n = 2, j = p(p-1) = 6
    elems = enumerate_families(CTX3, 1, TRUNC_INF, (0, 60))
    b2 = [e for e in elems if e.tag is FamilyTag.B and e.n == 2 and e.index == 6]
    assert len(b2) == 2
    el = b2[0]
    assert len(el.components) == 3
    assert el.components[2][0] == 4  # level n+2
    assert el.components[2][1] == 3**3 * 1 * 2  # t exponent p^(n+1) l (p-1)
    assert el.torsion == family_torsion(FamilyTag.B, CTX3, 2, 1, None, 6) == (1 + 3 + 9 + 27) + 27


def test_family_torsion_values():
    assert family_torsion(FamilyTag.C, CTX5, 1, 1, None, 2) == 3  # p - i
    assert family_torsion(FamilyTag.A, CTX3, 1, 2, None, 3) == 4  # 1 + p
    assert family_torsion(FamilyTag.G, CTX3, 2, 1, 1, 100) == 3  # p + ... + p^r
    # truncation collapses B to its first component
    assert family_torsion(FamilyTag.B, CTX3, 2, 1, None, 6, trunc=2) == 13
    assert family_torsion(FamilyTag.B, CTX3, 2, 1, None, 6, trunc=3) == 40
    with pytest.raises(InputError):
        family_torsion(FamilyTag.A, CTX3, 2, 1, None, 0, trunc=1)


def test_components_share_bidegree_and_leading_disjoint():
    for p, ell in ((3, 1), (3, 2), (2, 1), (2, 3), (5, 2)):
        ctx = PrimeContext(p)
        for trunc in (TRUNC_INF, 0, 1, 2):
            elems = enumerate_families(ctx, ell, trunc, (0, 120))
            for el in elems:
                assert {Monomial(level, ell, *rest).bidegree(ctx) for level, *rest in el.components} == {el.bid}
            assert repeated_leading(elems) is None
            if elems:
                assert repeated_leading(elems + elems[-1:]) == elems[-1].leading()


def test_twist_must_be_prime_to_p():
    with pytest.raises(InputError):
        enumerate_families(CTX3, 3, TRUNC_INF, (0, 50))
    with pytest.raises(InputError):
        enumerate_families(CTX3, 0, TRUNC_INF, (0, 50))


def test_negative_truncation_refused():
    assert enumerate_families(CTX3, 1, 0, (0, 50))
    for trunc in (-1, -3):
        with pytest.raises(InputError, match="truncation level must be >= 0"):
            enumerate_families(CTX3, 1, trunc, (0, 50))


def test_stems_bounded_below_by_connectivity():
    for ell in (1, 2, 4):
        multiset = tr_closed_decomposition(CTX3, ell, TRUNC_INF, 100)
        table = orbit_dims(CTX3.q, (0, 2 * ell - 2), multiset.items())
        assert not table.entries  # nothing below stem 2l - 1


def _brute_family_labels(ctx, ell, trunc, window):
    """Family labels in enumeration order, scanning every index j up to the window top."""
    p = ctx.p
    lo, hi = window
    labels = []
    n = 0
    while 2 * ell * p**n <= hi:
        if trunc != TRUNC_INF and n > trunc:
            break
        cong = n * ell * p ** (n - 1) if n >= 1 else 0
        top_level = trunc != TRUNC_INF and n == trunc

        def emit(tag, r, index, e, lead):
            if lo <= lead.bidegree(ctx).d <= hi:
                rs = f",r{r}" if r is not None else ""
                labels.append(f"{tag}[n{n},l{ell}{rs}]j{index}e{e}")

        for e in (0, 1):
            for j in range(0 if n == 0 else 1, hi + 1):
                if (j - cong) % p**n:
                    continue
                i_t = p**n * ell * (p - 1) - p * j
                if i_t < 0:
                    if top_level:
                        emit("F", None, j, e, Monomial(n, ell, 0, j, e, 0))
                    continue
                emit("A" if i_t >= p ** (n + 1) else "B", None, j, e, Monomial(n, ell, 0, j, e, 0))
        if n >= 1:
            for e in (0, 1):
                for i in range(1, p):
                    if (i + cong) % p:
                        emit("C", None, i, e, Monomial(n, ell, i, 0, 1, e))
        for r in range(1, n + 1):
            for e in (0, 1):
                for j in range(0 if n == 1 else 1, hi + 1):
                    if vp(p, j - cong) != r - 1:
                        continue
                    i_t = p**n * ell * (p - 1) - p * j
                    if i_t < 0:
                        if top_level:
                            emit("G", r, j, e, Monomial(n, ell, 0, j, 1, e))
                        continue
                    emit("D" if i_t >= p ** (r + 1) else "E", r, j, e, Monomial(n, ell, 0, j, 1, e))
        n += 1
    return labels


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_matches_every_index_scan(p):
    ctx = PrimeContext(p)
    window = (0, 150)
    for ell in [l for l in range(1, 8) if l % p][:4]:
        for trunc in (0, 1, 2, 3, TRUNC_INF):
            got = [el.label() for el in enumerate_families(ctx, ell, trunc, window)]
            assert got == _brute_family_labels(ctx, ell, trunc, window), (ell, trunc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_family_count_matches_the_enumeration(p):
    ctx = PrimeContext(p)
    for ell in (1, 2, 4, 9, 13):
        if ell % p == 0:
            continue
        for hi in (2 * ell - 1, 2 * ell, 2 * ell * p + 5, 97, 250):
            expected = len(enumerate_families(ctx, ell, TRUNC_INF, (0, hi)))
            assert family_count(ctx, ell, hi) == expected
            assert len(enumerate_families(ctx, ell, TRUNC_INF, (-9, hi))) == expected



def test_progression_checks_bidegrees_at_both_ends():
    # mu^j at level 1 against t^(5 - 2j) at level 2 (p = 3, l = 1): both at
    # stem 12 for j = 1, apart at j = 4
    chain = ((1, 0, 0, 1), (2, 5, -2, 0))
    assert Progression(FamilyTag.A, 1, 1, None, 0, range(1, 2), 0, 0, chain, TRUNC_INF).affine(CTX3)
    with pytest.raises(InputError, match=r"A\[n1,l1\]j4e0 disagree in bidegree"):
        Progression(FamilyTag.A, 1, 1, None, 0, range(1, 5, 3), 0, 0, chain, TRUNC_INF).affine(CTX3)


@st.composite
def _twist_draws(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ell = draw(st.integers(1, 40).filter(lambda x: x % p))
    hi = draw(st.integers(2 * ell - 1, 2 * ell * p**3 + 40))
    return p, ell, hi


@settings(max_examples=150)
@given(_twist_draws())
def test_progressions_give_the_enumeration(draw):
    p, ell, hi = draw
    ctx = PrimeContext(p)
    for trunc in (TRUNC_INF, 0, 1, 2, 3):
        elems = enumerate_families(ctx, ell, trunc, (0, hi))
        multiset = tr_closed_decomposition(ctx, ell, trunc, hi)
        assert multiset == Counter((el.bid.d, el.bid.s, el.torsion) for el in elems), trunc
        assert family_count(ctx, ell, hi, trunc) == sum(multiset.values()), trunc
        indices = [(el.tag, el.n, el.r, el.e, el.index) for el in elems]
        assert len(set(indices)) == len(indices), trunc
        assert repeated_leading(elems) is None, trunc


@pytest.mark.parametrize("p,n,ell,variant", [(3, 0, 0, "hfp"), (3, 1, 1, "hfp"), (2, 3, 1, "tate"), (5, 2, 2, "muinv")])
def test_einf_guard_is_the_generator_count(monkeypatch, p, n, ell, variant):
    ctx, window = PrimeContext(p), (-300, 300)
    # the count skips the t sides whose torsion is an empty sum, as the
    # enumeration does (level 0: only the fixed-point boost leaves classes)
    count = sum(einf_closed(ctx, n, ell, Variant(variant), window).values())
    assert count > 0
    monkeypatch.setattr(closedforms, "MAX_EINF_GENERATORS", count)
    einf_closed(ctx, n, ell, Variant(variant), window)
    monkeypatch.setattr(closedforms, "MAX_EINF_GENERATORS", count - 1)
    with pytest.raises(ResourceError, match=f"more than {count - 1} E-infinity generators"):
        einf_closed(ctx, n, ell, Variant(variant), window)
