"""Every failure branch of the verify suites fires on a mutant.

Each mutant breaks one route in one place with monkeypatch; the test runs
`synlab verify` on a small grid and requires exit code 3, a JSON report
whose failed checks are exactly the expected ones, with their details,
and the matching FAIL lines on stderr.
"""

import json
import re
from collections import Counter

import pytest

from synlab import assembly, closedforms, trkernel, verify
from synlab.cli import main
from synlab.closedforms import TRUNC_INF, FamilyTag, enumerate_families
from synlab.graded import Monomial, PrimeContext
from synlab.nygaard import Variant

CTX3 = PrimeContext(3)
EINF_GRID = ["--suite", "einf", "--p", "3", "--n-max", "1", "--ell-max", "1", "--deg-max", "30"]
FAMILY_GRID = ["--suite", "families", "--p", "3", "--ell-max", "1", "--deg-max", "60"]
HFP_PAGE = (1, 1, Variant.HFP)  # (n, ell, variant) of the page the einf mutants break


def _failed(capsys, *argv):
    """(exit code, [(name, detail)] of the failed checks) of `synlab verify`,
    after checking that stderr prints each as a FAIL line."""
    code = main(["verify", *argv])
    out = capsys.readouterr()
    failed = [(c["name"], c["detail"]) for c in json.loads(out.out)["checks"] if not c["passed"]]
    suite = argv[argv.index("--suite") + 1]
    for name, detail in failed:
        assert f"FAIL {suite}: {name}" + (f"  [{detail}]" if detail else "") in out.err.splitlines()
    return code, failed


def test_ac1_fires_on_a_dropped_closed_generator(capsys, monkeypatch):
    einf_closed = closedforms.einf_closed
    dropped = []

    def drop_the_top_generator(ctx, n, ell, variant, window):
        gens = einf_closed(ctx, n, ell, variant, window)
        if (n, ell, variant) == HFP_PAGE:
            key = max(k for k in gens if k[0] <= window[1])
            dropped.append(key)
            gens[key] -= 1
        return +gens

    monkeypatch.setattr(closedforms, "einf_closed", drop_the_top_generator)
    code, failed = _failed(capsys, *EINF_GRID)
    assert code == 3 and len(failed) == 1
    name, detail = failed[0]
    assert name == "AC1 p=3 n=1 hfp oracle=closed, stems |d|<=30"
    stem, line, oracle, closed = map(int, re.fullmatch(r"l=1: dim at \(stem,line\)=\((-?\d+), (-?\d+)\): "
                                                       r"oracle (\d+) closed (\d+)", detail).groups())
    assert (stem, line) == dropped[0][:2] and oracle == closed + 1


def test_ac1_fires_on_a_changed_closed_torsion(capsys, monkeypatch):
    counted = verify.einf_closed_counted
    moved = []

    def raise_the_first_torsion(ctx, n, ell, variant, window, v1_cutoff):
        dims, gens = counted(ctx, n, ell, variant, window, v1_cutoff)
        if (n, ell, variant) == HFP_PAGE:
            key = min(gens)
            moved.append((key, gens[key]))
            gens[key] -= 1
            gens[key[:2] + (key[2] + 1,)] += 1
        return dims, +gens

    monkeypatch.setattr(verify, "einf_closed_counted", raise_the_first_torsion)
    code, failed = _failed(capsys, *EINF_GRID)
    (stem, line, order), mult = moved[0]
    assert (code, failed) == (3, [("AC1 p=3 n=1 hfp oracle=closed, stems |d|<=30",
                                   f"l=1: torsion multiset at {(stem, line)}: order {order} oracle x{mult} closed x{mult - 1}")])


def test_ac9_fires_when_the_doubled_cutoff_page_differs(capsys, monkeypatch):
    run_to_einf = verify.run_to_einf

    def kill_a_survivor_at_the_doubled_cutoff(page):
        res = run_to_einf(page)
        if (page.n, page.ell, page.variant) == HFP_PAGE and page.v1_cutoff == 2 * 5:
            seg, delta, *_ = next(res._survivors(page.window))
            seg.store(delta - seg.deltas.start, [])
        return res

    monkeypatch.setattr(verify, "run_to_einf", kill_a_survivor_at_the_doubled_cutoff)
    assert _failed(capsys, *EINF_GRID, "--double-cutoff") == (
        3, [("AC9 p=3 n=1 hfp cutoff doubling stable", "l=1: output changed under cutoff doubling")])


def test_ac3_fires_on_a_changed_family_torsion(capsys, monkeypatch):
    closed = trkernel.tr_closed_decomposition
    raised = []

    def raise_one_torsion(ctx, ell, trunc, hi):
        multiset = closed(ctx, ell, trunc, hi)
        if trunc == 1:
            stem, line, torsion = min(multiset)
            multiset = multiset - Counter([(stem, line, torsion)]) + Counter([(stem, line, torsion + 1)])
            raised.append((stem, line, torsion))
        return multiset

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", raise_one_torsion)
    code, failed = _failed(capsys, "--suite", "tr", "--p", "3", "--ell-max", "1", "--m-max", "1", "--deg-max", "40")
    # the closed orbit now reaches one v1-step higher, where the oracle has
    # one class fewer
    stem, line, torsion = raised[0]
    first = ((stem + torsion * CTX3.q, line), 1, 2)
    assert (code, failed) == (3, [("AC3 p=3 l=1 m=1 oracle=closed",
                                   f"twist l=1: oracle and closed form disagree at {first}")])


def test_ac9_fires_when_a_truncation_changes_below_its_floor(capsys, monkeypatch):
    tr_gr_module = verify.tr_gr_module

    def add_a_class_at_truncation_one(ctx, ell, m, window, **kw):
        res = tr_gr_module(ctx, ell, m, window, **kw)
        if m == 1:
            res.multiset[(2, 0, 1)] += 1
        return res

    monkeypatch.setattr(verify, "tr_gr_module", add_a_class_at_truncation_one)
    # truncation 1 may first differ from truncation 0 at stem 2*l*p - 2 = 4
    assert _failed(capsys, "--suite", "tr", "--p", "3", "--ell-max", "1", "--m-max", "1", "--deg-max", "40") == (
        3, [("AC9 p=3 l=1 m=0->1 stable below stem 2", "stability bound 2 below expected floor 4")])


def _at(trunc, change):
    """Apply change to the family elements of one truncation level only."""
    return lambda level, els: change(els) if level == trunc else els


def _first(els, **fields):
    return [els[0]._replace(**fields), *els[1:]]


def _second(els, **fields):
    return [els[0], els[1]._replace(**fields), *els[2:]]


# B[n0,l1]j0e0, the first element, is the chain (0, 0, 0, 0, 0), (1, 2, 0, 0, 0), and B[n0,l1]j0e1, the
# second, the chain (0, 0, 0, 1, 0), (1, 2, 0, 1, 0)
CHAIN = "B[n0,l1]j0e0: solver chain [(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)] != stated [(0, 0, 0, 0, 0), (1, 3, 1, 0, 0)]"
SECOND_CHAIN = "B[n0,l1]j0e1: solver chain [(0, 1, 0, 1, 0)] != stated [(0, 1, 0, 1, 0), (1, 2, 0, 1, 0)]"
SOLVE = "AC2 p=3 l=1 chains solve (30 elements, stems<=60)"
TORSION = ("AC2 p=3 l=1 torsion orders match", "B[n0,l1]j0e0: probed 2 stated 3")
FAMILY_MUTANTS = {
    "torsion-off-by-one": (_at(TRUNC_INF, lambda els: _first(els, torsion=els[0].torsion + 1)), [TORSION]),
    "changed-component": (_at(TRUNC_INF, lambda els: _first(els, components=((0, 0, 0, 0, 0), (1, 3, 1, 0, 0)))),
                          [(SOLVE, CHAIN),
                           ("AC2 p=3 l=1 torsion orders match", CHAIN)]),
    "repeated-leading-class": (_at(TRUNC_INF, lambda els: els + els[:1]),
                               [("AC2 p=3 l=1 leading terms disjoint", "leading terms collide at (0, 0, 0, 0, 0)")]),
    "repeated-truncated-leading-class": (_at(1, lambda els: els + els[:1]),
                                         [("AC2 p=3 l=1 truncated mu-tails",
                                           "trunc 1: leading terms collide at (0, 0, 0, 0, 0)")]),
    "wrong-mu-tail-torsion": (_at(0, lambda els: [e._replace(torsion=e.torsion + 1) if e.tag in (FamilyTag.F, FamilyTag.G)
                                                  else e for e in els]),
                              [("AC2 p=3 l=1 truncated mu-tails", "F[n0,l1]j1e0 trunc 0: probed 1 stated 2")]),
    # a torsion failure of the first element hides no chain failure of the second
    "torsion-then-chain": (_at(TRUNC_INF, lambda els: _second(_first(els, torsion=els[0].torsion + 1),
                                                              components=((0, 1, 0, 1, 0), (1, 2, 0, 1, 0)))),
                           [(SOLVE, SECOND_CHAIN), TORSION]),
}


@pytest.mark.parametrize("mutant", FAMILY_MUTANTS)
def test_ac2_fires_on_a_changed_family(mutant, capsys, monkeypatch):
    change, expected = FAMILY_MUTANTS[mutant]
    real = verify.enumerate_families
    monkeypatch.setattr(verify, "enumerate_families",
                        lambda ctx, ell, trunc, window: change(trunc, real(ctx, ell, trunc, window)))
    assert _failed(capsys, *FAMILY_GRID) == (3, expected)


def test_ac2_fires_on_a_wrong_truncated_torsion(capsys, monkeypatch):
    family_torsion = verify.family_torsion
    monkeypatch.setattr(verify, "family_torsion", lambda *args: family_torsion(*args) + 1)
    assert _failed(capsys, *FAMILY_GRID) == (3, [("AC2 p=3 l=1 torsion orders match",
                                                  "B[n0,l1]j0e0 at trunc 0: probed 1 stated 2")])


def test_ac2_fires_on_a_chain_that_needs_a_dead_class(capsys, monkeypatch):
    # kill the second component of the first chain on its fixed-point page
    first = enumerate_families(CTX3, 1, TRUNC_INF, (0, 60))[0]
    level, t, mu, lam, u = dead = first.components[1]
    page_set = verify.PageSet

    def with_a_dead_class(*args):
        pages = page_set(*args)
        page = pages.hfp[level].page
        seg = page._segment_of(lam, u, t - mu)
        seg.store(t - mu - seg.deltas.start, [])
        return pages

    monkeypatch.setattr(verify, "PageSet", with_a_dead_class)
    detail = (f"{first.label()}: chain from {Monomial(first.n, 1, *first.leading()[1:])} needs dead class "
              f"{Monomial(level, 1, *dead[1:])} at level {level}")
    assert _failed(capsys, *FAMILY_GRID) == (3, [(SOLVE, detail),
                                                 ("AC2 p=3 l=1 torsion orders match", detail)])


def test_ac6_fires_on_a_line_two_excess_and_a_line_three_class(capsys, monkeypatch):
    tc_eps_dims = assembly.tc_eps_dims
    extra = Counter({(10, 2, 1): 1, (12, 3, 1): 1})
    monkeypatch.setattr(assembly, "tc_eps_dims", lambda ctx, window, mode="closed": tc_eps_dims(ctx, window, mode) + extra)
    rep = assembly.two_line_check(CTX3, (0, 40))
    assert rep.violations == [((10, 2, 1), 1), ((12, 3, 1), 1)] and not rep.ok
    assert _failed(capsys, "--suite", "assembly", "--p", "3", "--deg-max", "40") == (
        3, [("AC6 p=3 two-line check, stems<=40", str(rep.violations))])
