from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab import trkernel
from synlab.assembly import (
    AssemblyParams,
    betti_bound,
    k_mod_dims,
    syntomic_dims,
    tc_eps_dims,
    tc_mod_dims,
    tc_zp_dims,
    two_line_check,
)
from synlab.closedforms import MAX_FAMILY_ELEMENTS, TRUNC_INF, family_progressions, tr_closed_decomposition
from synlab.errors import InputError, InvariantError, ResourceError, VerificationFailure
from synlab.graded import TORSION_FREE, CyclicDecomposition, DimTable, PrimeContext

CTX3 = PrimeContext(3)
CTX2 = PrimeContext(2)


def test_tc_zp_generator_count_and_degrees():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        dec = tc_zp_dims(ctx, (0, 10))
        assert len(dec) == p + 3
        assert all(g.torsion == TORSION_FREE for g in dec)
        bids = {tuple(g.bidegree) for g in dec}
        assert (0, 0) in bids and (-1, 1) in bids
        assert (2 * p - 1, 1) in bids and (2 * p - 2, 2) in bids
        for i in range(1, p):
            assert (2 * p - 1 - 2 * i, 1) in bids


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tc_zp_builds_only_the_generators_the_window_reaches(p):
    ctx = PrimeContext(p)
    full = tc_zp_dims(ctx, (-4, 2 * p - 1))
    assert len(full) == p + 3
    for hi in range(-3, 2 * p + 1):
        window = (-4, hi)
        dec = tc_zp_dims(ctx, window)
        assert all(g.bidegree.d <= hi for g in dec)
        assert dec.dims(ctx, window).entries == full.dims(ctx, window).entries, hi


def test_tc_zp_low_stem_dims():
    table = tc_zp_dims(CTX3, (0, 8)).dims(CTX3, (-1, 4))
    assert table.entries.get((-1, 1), 0) == 1
    assert table.entries.get((4, 0), 0) == 1 and table.entries.get((4, 2), 0) == 1


def _keys(gens) -> Counter:
    return Counter((g.bidegree.d, g.bidegree.s, g.torsion) for g in gens)


def test_tc_eps_agrees_with_tc_zp_below_stem_one():
    # v1 raises the stem, so the generators at stems <= 0 fix the table there
    eps = tc_eps_dims(CTX3, (-4, 20))
    zp = _keys(tc_zp_dims(CTX3, (-4, 20)))
    assert {k: m for k, m in eps.items() if k[0] <= 0} == {k: m for k, m in zp.items() if k[0] <= 0}


def test_tc_eps_lines_and_two_line_labels():
    eps = tc_eps_dims(CTX3, (-4, 40))
    assert {s for (_d, s, _t) in eps} <= {-1, 0, 1, 2}
    # the only line-2 generator is del*l1
    assert {k: m for k, m in eps.items() if k[1] == 2} == {(2 * 3 - 2, 2, TORSION_FREE): 1}


def test_tc_eps_stem_two_from_first_twist():
    eps = tc_eps_dims(CTX3, (0, 6))
    at2 = {k: m for k, m in eps.items() if k[0] == 2}
    assert sum(at2.values()) == 1
    assert set(at2) <= set(tr_closed_decomposition(CTX3, 1, TRUNC_INF, 6))
    assert not any(d == 2 for (d, _s, _t) in _keys(tc_zp_dims(CTX3, (0, 6))))


def test_syntomic_free_generator_contributes_k_reduction_classes():
    # the free class `del` at (-1, 1): k reduction classes, no kernel class
    for k in (1, 2, 3):
        params = AssemblyParams(3, 5, k, (-1, -1))
        table = syntomic_dims(params)
        assert table.entries.get((-1, 1), 0) == 1
    params = AssemblyParams(3, 5, 2, (3, 3))
    assert syntomic_dims(params).entries.get((3, 1), 0) == 2  # v1*del and t*l1 share the spot


def test_syntomic_torsion_generator_kernel_classes():
    # the twist-1 bottom class: torsion 2 at (2, 0); with k = 1 it gives one
    # reduction class at (2,0) and one kernel class at (2 + q + q*k + 1, 1)
    params = AssemblyParams(3, 3, 1, (-2, 20))
    table = syntomic_dims(params)
    assert table.entries.get((2, 0), 0) == 1
    assert table.entries.get((2 + 4 + 4 + 1, 1), 0) >= 1


def test_syntomic_requires_identification_range():
    with pytest.raises(InputError):
        syntomic_dims(AssemblyParams(3, 2, 2, (0, 10)))  # k > p^(n-2) = 1


def test_identification_license_boundary():
    # syntomic_dims reads n only through this rule, so it is what makes a
    # table independent of n
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 3), (2, 4), (2, 5)):
        top = p ** (n - 2)
        over = top + (4 if p == 2 else 1)  # at p = 2, k stays a multiple of 4
        assert syntomic_dims(AssemblyParams(p, n, top, (-2, 10))).entries
        with pytest.raises(InputError, match="exceeds"):
            syntomic_dims(AssemblyParams(p, n, over, (-2, 10)))


def test_tc_table_is_column_sums():
    params = AssemblyParams(3, 4, 2, (-4, 30))
    syn = syntomic_dims(params)
    tc = tc_mod_dims(params)
    totals = Counter()
    for (stem, _line), n in syn.entries.items():
        totals[stem] += n
    assert totals and {(stem, 0): n for stem, n in totals.items()} == tc.entries


def test_tc_stem_minus_one_has_del():
    assert tc_mod_dims(AssemblyParams(3, 3, 1, (-2, 10))).entries.get((-1, 0), 0) == 1


def test_k_tc_delta():
    q = CTX3.q
    for k in (1, 2):
        params = AssemblyParams(3, 4, k, (-4, 40))
        tc = tc_mod_dims(params)
        kt = k_mod_dims(params)
        diff = {}
        for key in set(tc.entries) | set(kt.entries):
            d = kt.entries.get(key, 0) - tc.entries.get(key, 0)
            if d:
                diff[key[0]] = d
        assert diff == {-1: -1, q * k - 1: 1}
        assert kt.entries.get((0, 0), 0) == tc.entries.get((0, 0), 0)


def test_k_refuses_boundary_k():
    with pytest.raises(InputError):
        k_mod_dims(AssemblyParams(3, 3, 3, (0, 10)))


def test_p2_quotients_flagged_associated_graded():
    params = AssemblyParams(2, 4, 4, (-2, 20))
    syn = syntomic_dims(params)
    assert syn.notes.get("assoc_graded") is True
    assert tc_mod_dims(params).notes.get("assoc_graded") is True
    with pytest.raises(InputError):
        AssemblyParams(2, 4, 2, (0, 10))  # 4 | k required at p = 2


def test_quotient_kernel_duality_per_generator(monkeypatch):
    # rank-nullity of v1^k on one cyclic summand at (0, 0): the table has k
    # more classes on line 0 (reductions) than on line 1 (kernels) for a free
    # generator, and as many for a torsion one, the last kernel class being
    # v1^(r-1) g shifted by (q*k + 1, +1)
    from synlab import assembly

    q, k = CTX3.q, 2
    params = AssemblyParams(3, 3, k, (-2, 60))  # holds every class of torsion <= 5
    for torsion, expect in ((TORSION_FREE, k), (1, 0), (3, 0), (5, 0)):
        monkeypatch.setattr(assembly, "tc_eps_dims", lambda ctx, window, mode, t=torsion: Counter({(0, 0, t): 1}))
        on_line = {0: [], 1: []}
        for (stem, line), n in syntomic_dims(params).entries.items():
            on_line[line] += [stem] * n
        assert len(on_line[0]) - len(on_line[1]) == expect
        assert min(on_line[0]) == 0
        if torsion != TORSION_FREE:
            assert max(on_line[1]) == (torsion - 1) * q + q * k + 1


def test_two_line_check_windows():
    assert two_line_check(CTX3, (0, 80)).ok
    assert two_line_check(CTX2, (0, 60)).ok
    vac = two_line_check(CTX3, (4, 2))
    assert vac.ok and vac.line2_count == 0


def test_two_line_check_reads_only_orbits_that_meet_the_window(monkeypatch):
    from synlab import assembly

    key = (10, 3, 2)  # a line-3 class g and v1*g, at stems 10 and 10 + q
    monkeypatch.setattr(assembly, "tc_eps_dims", lambda ctx, window, mode: Counter({key: 1}))
    assert two_line_check(CTX3, (10 + 2 * CTX3.q, 40)).ok  # the orbit ends below the window
    assert two_line_check(CTX3, (10 + CTX3.q, 40)).violations == [(key, 1)]


def test_betti_bound_values():
    assert betti_bound(CTX3, 3) == 3
    assert betti_bound(CTX3, 0) == 3
    assert betti_bound(CTX2, 1) == 4
    with pytest.raises(InputError):
        betti_bound(CTX3, -1)


@pytest.mark.parametrize("hi", [120, 600])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tc_eps_is_tc_zp_then_prefixed_twists(p, hi):
    ctx = PrimeContext(p)
    want = _keys(tc_zp_dims(ctx, (-2, hi)))
    for ell in range(1, hi):
        if ell % p and 2 * ell - 1 <= hi:
            want.update(tr_closed_decomposition(ctx, ell, TRUNC_INF, hi))
    assert tc_eps_dims(ctx, (-2, hi)) == want


def test_tc_eps_merge_is_linear(monkeypatch):
    # the closed route builds no FamilyElement and no Generator for a twist
    from synlab import assembly, closedforms
    from synlab.graded import Generator

    def no_object(*args, **kwargs):
        raise AssertionError("a twist built a per-generator object")

    monkeypatch.setattr(closedforms, "FamilyElement", no_object)
    monkeypatch.setattr(closedforms, "enumerate_families", no_object)
    check = Generator.__new__

    def only_tc_zp(cls, label, *args, **kwargs):
        assert label.startswith("Zp:"), f"twist generator {label} built"
        return check(cls, label, *args, **kwargs)

    monkeypatch.setattr(Generator, "__new__", only_tc_zp)
    eps = tc_eps_dims(CTX3, (-2, 200))
    twists = [ell for ell in range(1, assembly.twist_bound(200) + 1) if ell % 3]
    tr_count = sum(len(prog.js) for ell in twists for prog in family_progressions(CTX3, ell, TRUNC_INF, 200))
    assert sum(eps.values()) == len(tc_zp_dims(CTX3, (-2, 200))) + tr_count


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tc_eps_builds_each_twists_progressions_once(monkeypatch, p):
    # the size guard's count and the closed tally read the same build
    from synlab import assembly, closedforms

    ctx, window = PrimeContext(p), (-2, 300)
    calls = Counter()
    build = closedforms.family_progressions

    def counted(ctx, ell, *args):
        calls[ell] += 1
        return build(ctx, ell, *args)

    # every build, by the table or inside the tally
    monkeypatch.setattr(assembly, "family_progressions", counted)
    monkeypatch.setattr(closedforms, "family_progressions", counted)
    tc_eps_dims(ctx, window)
    twists = [ell for ell in range(1, assembly.twist_bound(window[1]) + 1) if ell % p]
    assert calls == Counter(twists)


def test_table_refuses_a_twist_past_the_family_cap(monkeypatch):
    # a twist past MAX_FAMILY_ELEMENTS is refused inside a table, with the
    # message a single tr table gives, before it is tallied
    from synlab import closedforms

    ctx, window = CTX3, (-2, 300)
    first = sum(len(prog.js) for prog in family_progressions(ctx, 1, TRUNC_INF, window[1]))
    assert first < MAX_FAMILY_ELEMENTS
    monkeypatch.setattr(closedforms, "MAX_FAMILY_ELEMENTS", first)
    tc_eps_dims(ctx, window)
    monkeypatch.setattr(closedforms, "MAX_FAMILY_ELEMENTS", first - 1)
    message = f"stems up to {window[1]} need more than {first - 1} family elements; lower the window top"
    with pytest.raises(ResourceError) as refused:
        tc_eps_dims(ctx, window)
    assert str(refused.value) == message
    with pytest.raises(ResourceError) as refused_alone:
        tr_closed_decomposition(ctx, 1, TRUNC_INF, window[1])
    assert str(refused_alone.value) == message


def test_both_mode_raises_on_a_twist_mismatch(monkeypatch):
    params = AssemblyParams(3, 3, 1, (-2, 12))
    assert syntomic_dims(params, mode="both").entries == syntomic_dims(params).entries
    closed = trkernel.tr_closed_decomposition

    def drop_lowest(ctx, ell, trunc, hi):
        multiset = closed(ctx, ell, trunc, hi)
        return multiset - Counter([min(multiset)])

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", drop_lowest)
    with pytest.raises(VerificationFailure, match="twist l=1: oracle and closed form disagree"):
        syntomic_dims(params, mode="both")


def test_assembly_refuses_uncertified_torsion(monkeypatch):
    from synlab.errors import InvariantError
    from synlab.graded import Bidegree, Generator

    def one_bound(oracle):
        return CyclicDecomposition([Generator("g", Bidegree(2 * oracle.ell, 0), 2, certified=False)])

    monkeypatch.setattr(trkernel.TrOracle, "decomposition", one_bound)
    params = AssemblyParams(3, 3, 1, (-2, 12))
    for table in (syntomic_dims, tc_mod_dims, k_mod_dims):
        with pytest.raises(InvariantError, match="l1:g at \\(2, 0\\)"):
            table(params, mode="oracle")


def test_generator_guard_is_the_tr_generator_count(monkeypatch):
    from synlab import assembly

    ctx, window = PrimeContext(3), (-2, 40)
    tr_count = sum(tc_eps_dims(ctx, window).values()) - len(tc_zp_dims(ctx, window))
    monkeypatch.setattr(assembly, "MAX_GENERATORS", tr_count)
    tc_eps_dims(ctx, window)
    monkeypatch.setattr(assembly, "MAX_GENERATORS", tr_count - 1)
    with pytest.raises(ResourceError, match=f"more than {tr_count - 1} generators"):
        tc_eps_dims(ctx, window)


def test_k_theory_underflow_is_an_invariant_failure(monkeypatch, capsys):
    from synlab import assembly
    from synlab.cli import main

    # the TC table always holds the class del at stem -1 that K removes
    def empty(params, mode="closed"):
        return DimTable({"p": params.p, "n": params.n, "k": params.k}, {}, params.window)

    monkeypatch.setattr(assembly, "tc_mod_dims", empty)
    with pytest.raises(InvariantError, match="underflow at stem -1"):
        k_mod_dims(AssemblyParams(3, 4, 1, (-2, 12)))
    assert main(["ktheory", "--p", "3", "--n", "4", "--k", "1", "--deg-max", "12"]) == 3
    assert capsys.readouterr().err.startswith("verification failure: K-theory correction underflow")


def test_unknown_mode_is_refused_before_any_work(monkeypatch):
    from synlab import assembly, closedforms

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an unknown mode")

    for name in ("family_progressions", "tr_closed_decomposition", "tr_gr_module", "tc_zp_dims"):
        monkeypatch.setattr(assembly, name, no_work)
    monkeypatch.setattr(closedforms.Progression, "affine", no_work)
    # with and without a twist in the window
    for window in ((-2, -1), (-2, 40)):
        with pytest.raises(InputError, match="unknown mode bogus"):
            tc_eps_dims(CTX3, window, mode="bogus")
        with pytest.raises(InputError, match="unknown mode bogus"):
            syntomic_dims(AssemblyParams(3, 4, 1, window), mode="bogus")
    # an inverted window too, on which two_line_check computes no table
    for window in ((-2, 40), (4, 2)):
        with pytest.raises(InputError, match="unknown mode bogus"):
            two_line_check(CTX3, window, mode="bogus")
    assert assembly.MODES is trkernel.MODES


@st.composite
def _licensed_tables(draw):
    """A prime, n, a k inside the identification license (4 | k at p = 2)
    and a window with top at most 120."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(4 if p == 2 else 2, 6))
    k = draw(st.sampled_from(range(4, 2 ** (n - 2) + 1, 4)) if p == 2 else st.integers(1, p ** (n - 2)))
    top = draw(st.integers(0, 120))
    return AssemblyParams(p, n, k, (draw(st.integers(-4, top)), top))


@settings(max_examples=20)
@given(_licensed_tables())
def test_random_tables_agree_on_both_routes(params):
    # mode="both" raises VerificationFailure at the first twist whose oracle
    # and closed form differ; the table it returns is the closed one
    assert syntomic_dims(params, mode="both") == syntomic_dims(params, mode="closed")
