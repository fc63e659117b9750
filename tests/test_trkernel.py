import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab import nygaard, trkernel
from synlab.cli import main
from synlab.closedforms import TRUNC_INF, FamilyTag, enumerate_families
from synlab.errors import InputError, InvariantError, ResourceError, VerificationFailure
from synlab.graded import CyclicDecomposition, Monomial, PrimeContext
from synlab.nygaard import SSPage
from synlab.trkernel import (
    PageSet,
    TrOracle,
    complete_to_kernel,
    gr_can,
    gr_phi,
    probe_element_torsion,
    tr_gr_module,
)

CTX3 = PrimeContext(3)


@pytest.fixture(scope="module")
def pages31():
    # levels 0..4 so that delta chains close; window deep enough to certify
    # torsion orders up to the B-exceptional value 67
    return PageSet(CTX3, 1, 4, (0, 340), 72)


def test_gr_can_identity_on_t_type(pages31):
    mono = Monomial(1, 1, t_exp=2, lam=1)
    assert gr_can(1, mono, 0, pages31) == (1, mono)
    # one v1 higher the Tate class is dead, so the graded map vanishes
    assert gr_can(1, mono.v1_times(), 1, pages31) is None


def test_gr_can_zero_on_mu_type(pages31):
    assert gr_can(1, Monomial(1, 1, mu_exp=2, u_exp=1).v1_times(), 1, pages31) is None


def test_gr_can_identity_includes_bottom_class(pages31):
    # t^0 = mu^0: the canonical map keeps the name (here it survives iff
    # the Tate class does; at level 1, twist 1 it does not)
    assert gr_can(1, Monomial(1, 1), 0, pages31) is None  # 0 is not congruent to -n*l*p^(n-1) mod p


def test_gr_phi_formula(pages31):
    # se(3)*mu at level 1: target exponent p^n l (p-1) - p j = 3
    assert gr_phi(1, Monomial(1, 1, mu_exp=1), 0, pages31) == (2, Monomial(2, 1, t_exp=3))


def test_gr_phi_keeps_the_height(pages31):
    # v1 * se(3)*mu: the same target one v1 higher, t^4 mu at level 2
    target = (2, Monomial(2, 1, t_exp=4, mu_exp=1))
    assert pages31.tate[2].alive(target[1])
    assert gr_phi(1, Monomial(1, 1, mu_exp=1).v1_times(), 1, pages31) == target


def test_gr_phi_zero_on_positive_t(pages31):
    assert gr_phi(1, Monomial(1, 1, t_exp=2, lam=1), 0, pages31) is None


def test_gr_phi_level_zero_bottom(pages31):
    assert gr_phi(0, Monomial(0, 1), 0, pages31) == (1, Monomial(1, 1, t_exp=2))


def test_complete_to_kernel_two_component_chain(pages31):
    # the suspension generator's chain: se(l) + c * se(pl) t^(l(p-1))
    comps = complete_to_kernel((0, Monomial(0, 1)), pages31)
    assert comps == [
        (0, Monomial(0, 1)),
        (1, Monomial(1, 1, t_exp=2)),
    ]
    assert probe_element_torsion(pages31, comps) == 2


def test_complete_to_kernel_single_component(pages31):
    comps = complete_to_kernel((1, Monomial(1, 1, t_exp=1, lam=1, u_exp=1)), pages31)
    assert len(comps) == 1
    assert probe_element_torsion(pages31, comps) == 2  # p - i


def test_complete_to_kernel_delta_chain(pages31):
    # B at n=2, j = p(p-1) = 6 has three components (p | n+1)
    comps = complete_to_kernel((2, Monomial(2, 1, mu_exp=6)), pages31)
    assert [level for level, _mono in comps] == [2, 3, 4]
    assert comps[2][1].t_exp == 54
    assert probe_element_torsion(pages31, comps) == 67


def test_complete_to_kernel_rejects_non_kernel_leading(pages31):
    # a t-type class whose canonical image survives is not a chain lead
    with pytest.raises(InvariantError):
        complete_to_kernel((1, Monomial(1, 1, t_exp=2)), pages31)


def test_complete_to_kernel_rejects_a_leading_term_divisible_by_v1(pages31):
    with pytest.raises(InputError, match="not pure"):
        complete_to_kernel((1, Monomial(1, 1, t_exp=2, lam=1).v1_times()), pages31)
    with pytest.raises(InputError, match="level disagrees"):
        complete_to_kernel((2, Monomial(1, 1, t_exp=2, lam=1)), pages31)


def test_truncation_zero_is_shifted_thh():
    res = tr_gr_module(CTX3, 1, 0, (0, 26), mode="both")
    assert res.comparison.ok
    got = sorted((tuple(g.bidegree), g.torsion) for g in res.decomposition.generators_in((0, 14)))
    assert got == [((2, 0), 1), ((7, 1), 1), ((8, 0), 1), ((13, 1), 1), ((14, 0), 1)]


def test_oracle_matches_closed_small_grid():
    for p, ell, m in ((3, 1, 1), (3, 2, 2), (2, 1, 2), (2, 3, 1), (3, 1, TRUNC_INF)):
        ctx = PrimeContext(p)
        res = tr_gr_module(ctx, ell, m, (0, 60), mode="both")
        assert res.comparison.ok, (p, ell, m, res.comparison.dim_mismatches[:3])


def test_kernel_vectors_satisfy_equalizer():
    oracle = TrOracle(CTX3, 1, 2, (0, 40))
    seen = 0
    for gen, key, vec in oracle.generators():
        assert vec and oracle.matrix(key).mul_vec(vec) == {}
        seen += 1
    assert seen > 0


def test_v1_surjectivity_of_kernel():
    oracle = TrOracle(CTX3, 1, 2, (0, 60))
    assert oracle.check_v1_surjectivity() == []


def test_surjectivity_report():
    rep = TrOracle(CTX3, 1, 2, (-20, 120)).surjectivity_report()
    assert rep.all_surjective and rep.pieces_checked > 0
    rep2 = TrOracle(PrimeContext(2), 1, 1, (0, 60)).surjectivity_report()
    assert rep2.all_surjective
    vac = TrOracle(CTX3, 1, 1, (10, 0)).surjectivity_report()
    assert vac.all_surjective and vac.pieces_checked == 0


TR_DRAWS = st.tuples(
    st.sampled_from((2, 3, 5)),
    st.integers(0, 5),
    st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
    st.integers(0, 150),
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(TR_DRAWS)
def test_tr_oracle_equals_closed_families_with_both_surjectivity_checks(draw):
    p, i, m, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    res = tr_gr_module(PrimeContext(p), ell, m, (0, hi), mode="both", with_surjectivity=True)
    # tr_gr_module raises unless v1 is onto on the kernel; gr(phi - can)
    # must be onto every Tate piece
    assert res.comparison.ok, (res.comparison.dim_mismatches[:3], res.comparison.torsion_mismatches[:3])
    assert res.surjectivity.all_surjective, res.surjectivity.failures[:3]


@pytest.fixture
def tate_only_class(monkeypatch):
    """Every TrOracle with a Tate piece in its window gets one Tate class
    no source class maps to, so gr(phi - can) is not onto that piece."""
    assemble = TrOracle._assemble

    def with_a_tate_only_class(oracle):
        assemble(oracle)
        lo, hi = oracle.window
        keys = [k for k in oracle._tgt_pieces if lo <= k[0] <= hi]
        if keys:  # truncation 0 has no Tate page
            level = oracle._tgt_pieces[min(keys)][0][0]
            oracle._tgt_pieces[min(keys)].append((level, Monomial(level, oracle.ell, t_exp=10**6)))

    monkeypatch.setattr(TrOracle, "_assemble", with_a_tate_only_class)


def test_a_tate_only_class_fails_every_oracle_run(tate_only_class, capsys):
    # no oracle table may be built on a piece gr(phi - can) does not reach
    with pytest.raises(InvariantError, match="not onto the Tate piece"):
        tr_gr_module(CTX3, 1, 2, (0, 40), mode="oracle")
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "2", "--deg-max", "40", "--mode", "oracle"])
    assert code == 3 and capsys.readouterr().out == ""


def test_verify_records_a_failed_oracle_run_and_goes_on(tate_only_class, capsys):
    argv = ["verify", "--suite", "all", "--p", "3", "--n-max", "1", "--ell-max", "1", "--m-max", "1", "--deg-max", "40"]
    assert main(argv) == 3
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["ok"] is False
    assert out.err.splitlines() == [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['suite']}: {c['name']}" + (f"  [{c['detail']}]" if not c["passed"] else "")
        for c in report["checks"]
    ]
    by_suite = {}
    for c in report["checks"]:
        by_suite.setdefault(c["suite"], []).append(c)
    # the suites that build no TrOracle pass, and so does truncation 0,
    # which has no Tate page; every other oracle run fails its check
    assert len(by_suite["einf"]) == 6 and len(by_suite["families"]) == 4
    assert all(c["passed"] for c in by_suite["einf"] + by_suite["families"])
    assert [(c["name"], c["passed"]) for c in by_suite["tr"]] == [
        ("AC3 p=3 l=1 m=0 oracle=closed", True),
        ("AC4 p=3 l=1 m=0 gr(phi-can) surjective (0 pieces)", True),
        ("AC4 p=3 l=1 m=1 gr(phi-can) surjective", False),
    ]
    assert [c["name"] for c in by_suite["assembly"]] == ["AC6 p=3 two-line check, stems<=40"]
    for c in by_suite["tr"][2:] + by_suite["assembly"]:
        assert not c["passed"] and c["detail"].startswith("gr(phi - can) not onto the Tate piece at")


def test_both_mode_raises_at_the_first_mismatch(monkeypatch, capsys):
    closed = trkernel.tr_closed_decomposition

    def drop_first(ctx, ell, trunc, window):
        return CyclicDecomposition(list(closed(ctx, ell, trunc, window))[1:])

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", drop_first)
    # the dropped generator B[n0,l1]j0e0 sits at (2, 0)
    first = "twist l=1: oracle and closed form disagree at ((2, 0), 1, 0)"
    with pytest.raises(VerificationFailure) as exc:
        tr_gr_module(CTX3, 1, 1, (0, 30), mode="both")
    assert str(exc.value) == first
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "1", "--deg-max", "30"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and out.err == f"verification failure: {first}\n"


def test_page_guards_all_fire_before_the_first_page(monkeypatch):
    built = []
    build = SSPage._build

    def counting_build(page):
        built.append((page.n, page.variant, page.ladder_count))
        build(page)

    monkeypatch.setattr(SSPage, "_build", counting_build)
    args = (PrimeContext(2), 1, TRUNC_INF, (0, 60))
    TrOracle(*args)
    counts = sorted(count for _n, _v, count in built)
    top = max(n for n, _v, _c in built)
    assert (top, nygaard.Variant.TATE, counts[-1]) in built and counts[-2] < counts[-1]
    # only the top page is too large, and it is built last
    monkeypatch.setattr(nygaard, "MAX_LADDERS", counts[-1] - 1)
    built.clear()
    with pytest.raises(ResourceError):
        TrOracle(*args)
    assert built == []


def test_twist_validation():
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 3, 1, (0, 20))
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 1, -1, (0, 20), mode="oracle")
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 1, 1, (0, 20), mode="sideways")


def test_chain_solver_agrees_with_enumerator():
    for p, ell, top in ((2, 3, 60), (3, 2, 90), (5, 2, 90), (7, 2, 90)):
        ctx = PrimeContext(p)
        elems = enumerate_families(ctx, ell, TRUNC_INF, (0, top))
        levels = max(e.n for e in elems) + 2
        maxtors = max(e.torsion for e in elems)
        pages = PageSet(ctx, ell, levels, (0, top + ctx.q * (maxtors + 2)), maxtors + 4)
        for el in elems:
            comps = complete_to_kernel(el.leading(), pages)
            assert comps == list(el.components), (p, el.label())
            assert probe_element_torsion(pages, comps) == el.torsion, (p, el.label())
