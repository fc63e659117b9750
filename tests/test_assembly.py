import pytest

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
from synlab.closedforms import TRUNC_INF, tr_closed_decomposition
from synlab.errors import InputError, VerificationFailure
from synlab.graded import TORSION_FREE, CyclicDecomposition, PrimeContext

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


def test_tc_zp_low_stem_dims():
    table = tc_zp_dims(CTX3, (0, 8)).dims(CTX3, (-1, 4))
    assert table.get(-1, 1) == 1
    assert table.get(4, 0) == 1 and table.get(4, 2) == 1


def test_tc_eps_agrees_with_tc_zp_below_stem_one():
    eps = tc_eps_dims(CTX3, (-4, 20))
    zp = tc_zp_dims(CTX3, (-4, 20))
    assert eps.dims(CTX3, (-4, 0)).same_entries(zp.dims(CTX3, (-4, 0)))


def test_tc_eps_lines_and_two_line_labels():
    eps = tc_eps_dims(CTX3, (-4, 40))
    assert {g.bidegree.s for g in eps} <= {-1, 0, 1, 2}
    assert [g.label for g in eps if g.bidegree.s == 2] == ["Zp:del*l1"]


def test_tc_eps_stem_two_from_first_twist():
    eps = tc_eps_dims(CTX3, (0, 6))
    at2 = [g for g in eps if g.bidegree.d == 2]
    assert len(at2) == 1 and at2[0].label.startswith("l1:")


def test_syntomic_free_generator_contributes_k_reduction_classes():
    # the free class `del` at (-1, 1): k reduction classes, no kernel class
    for k in (1, 2, 3):
        params = AssemblyParams(3, 5, k, (-1, -1))
        table = syntomic_dims(params)
        assert table.get(-1, 1) == 1
    params = AssemblyParams(3, 5, 2, (3, 3))
    assert syntomic_dims(params).get(3, 1) == 2  # v1*del and t*l1 share the spot


def test_syntomic_torsion_generator_kernel_classes():
    # the twist-1 bottom class: torsion 2 at (2, 0); with k = 1 it gives one
    # reduction class at (2,0) and one kernel class at (2 + q + q*k + 1, 1)
    params = AssemblyParams(3, 3, 1, (-2, 20))
    table = syntomic_dims(params)
    assert table.get(2, 0) == 1
    assert table.get(2 + 4 + 4 + 1, 1) >= 1


def test_syntomic_n_independence():
    tables = [syntomic_dims(AssemblyParams(3, n, 1, (-4, 60))) for n in (3, 4, 5)]
    assert tables[0].same_entries(tables[1])
    assert tables[1].same_entries(tables[2])


def test_syntomic_requires_identification_range():
    with pytest.raises(InputError):
        syntomic_dims(AssemblyParams(3, 2, 2, (0, 10)))  # k > p^(n-2) = 1


def test_tc_table_is_column_sums():
    params = AssemblyParams(3, 4, 2, (-4, 30))
    syn = syntomic_dims(params)
    tc = tc_mod_dims(params)
    for stem, total in syn.stem_totals().items():
        assert tc.get(stem, 0) == total


def test_tc_stem_minus_one_has_del():
    assert tc_mod_dims(AssemblyParams(3, 3, 1, (-2, 10))).get(-1, 0) == 1


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
        assert kt.get(0, 0) == tc.get(0, 0)


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


def test_quotient_kernel_duality_per_generator():
    # rank-nullity of v1^k on a cyclic module: reductions - kernels is k for
    # a free generator and 0 for a torsion one
    from synlab.graded import Bidegree, CyclicDecomposition, Generator

    q = CTX3.q
    k = 2
    for torsion, expect in ((TORSION_FREE, k), (1, 0), (3, 0), (5, 0)):
        gens = CyclicDecomposition([Generator("g", Bidegree(0, 0), torsion)])
        reductions = k if torsion == TORSION_FREE else min(int(torsion), k)
        kernels = 0 if torsion == TORSION_FREE else min(int(torsion), k)
        assert reductions - kernels == expect


def test_two_line_check_windows():
    assert two_line_check(CTX3, (0, 80)).ok
    assert two_line_check(CTX2, (0, 60)).ok
    vac = two_line_check(CTX3, (4, 2))
    assert vac.ok and vac.line2_count == 0


def test_betti_bound_values():
    assert betti_bound(CTX3, 3) == 3
    assert betti_bound(CTX3, 0) == 3
    assert betti_bound(CTX2, 1) == 4
    with pytest.raises(InputError):
        betti_bound(CTX3, -1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tc_eps_is_tc_zp_then_prefixed_twists(p):
    ctx = PrimeContext(p)
    hi = 120
    want = [(g.label, g.bidegree, g.torsion, g.certified) for g in tc_zp_dims(ctx, (-2, hi))]
    for ell in range(1, hi):
        if ell % p and 2 * ell - 1 <= hi:
            want += [(f"l{ell}:{g.label}", g.bidegree, g.torsion, g.certified)
                     for g in tr_closed_decomposition(ctx, ell, TRUNC_INF, (0, hi))]
    got = [(g.label, g.bidegree, g.torsion, g.certified) for g in tc_eps_dims(ctx, (-2, hi))]
    assert got == want


def test_tc_eps_merge_is_linear(monkeypatch):
    seen = []
    check = CyclicDecomposition.__post_init__

    def counting(self):
        seen.append(len(self.entries))
        check(self)

    monkeypatch.setattr(CyclicDecomposition, "__post_init__", counting)
    dec = tc_eps_dims(CTX3, (-2, 200))
    assert sum(seen) <= 3 * len(dec)


def test_both_mode_raises_on_a_twist_mismatch(monkeypatch):
    params = AssemblyParams(3, 3, 1, (-2, 12))
    assert syntomic_dims(params, mode="both").entries == syntomic_dims(params).entries
    closed = trkernel.tr_closed_decomposition

    def drop_first(ctx, ell, trunc, window):
        return CyclicDecomposition(list(closed(ctx, ell, trunc, window))[1:])

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", drop_first)
    with pytest.raises(VerificationFailure, match="twist l=1: oracle and closed form disagree"):
        syntomic_dims(params, mode="both")
