"""Acceptance suite: every headline cross-check at its full grid.

All comparisons are exact over F_p (no tolerances anywhere).  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion;
the same checks are reachable from the command line via `synlab verify`.
"""

from synlab.verify import (
    suite_assembly,
    suite_einf,
    suite_families,
    suite_tr,
)


def _report(checks, prefix):
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.passed]
    assert not failed, f"{prefix}: {len(failed)} failed, first: {failed[0].line()}"


def test_ac1_and_ac9_einf_oracle_equals_closed_forms():
    # AC1: p in {2,3,5}, n in 0..3, twists {0} + {1..p^2} prime to p, all
    # three variants, stems |d| <= 4p^3: dims and torsion multisets agree.
    # AC9 (cutoff half): doubling the v1 cutoff changes nothing.
    checks = suite_einf(ps=(2, 3, 5), n_max=3, double_cutoff=True)
    _report(checks, "AC1/AC9")


def test_ac2_families_are_kernel_chains_with_stated_torsion():
    # AC2: p in {2,3}, twists <= 8 prime to p, all family elements with
    # stem <= 300: the chain solver succeeds and probed torsion orders
    # match the stated ones, including truncated diagrams and mu-tails.
    checks = suite_families(ps=(2, 3), ell_max=8, stem_max=300)
    _report(checks, "AC2")


def test_ac3_ac4_ac9_main_theorem_surjectivity_stability():
    # AC3: oracle kernel = closed families, p in {2,3}, l <= 8, m <= 3,
    # stems <= 200.  AC4: gr(phi - can) surjective on the same grid.
    # AC9 (truncation half): consecutive truncations agree strictly below
    # the computed stability bound.
    checks = suite_tr(ps=(2, 3), ell_max=8, m_max=3, stem_max=200)
    _report(checks, "AC3/AC4/AC9")


def test_ac5_to_ac8_assembly():
    # AC6: the 2-line of TC(Z_p<eps>)/p carries only del*l1 powers,
    #      p in {2,3,5}, stems <= 300, TR summands by brute force.
    # The other criteria are regression pins, not two-route agreements, so
    # they are unit tests: AC5 (TC(Z_p)/p free on p+3 stated generators) is
    # test_tc_zp_generator_count_and_degrees, AC7 (n-independence; the table
    # reads n only through the license rule) is
    # test_identification_license_boundary, AC8 (K/TC difference supported
    # on stems {-1, (2p-2)k - 1}) is test_k_tc_delta, and the Betti bound
    # values of AC10 are test_betti_bound_values.
    checks = suite_assembly(ps=(2, 3, 5), stem_max=300)
    _report(checks, "AC6")
