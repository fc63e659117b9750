"""Cross-verification suites: every headline computation two ways, exactly.

Each suite returns a list of Check records (machine readable, with the
first counterexample coordinates in `detail` on failure).  A case stops
at the VerificationFailure (two routes differ, at graded.differences'
first key) or InvariantError (a route's own check failed) the library
raises; the suite records it as a FAIL check with its message and goes
on.  The acceptance grids are the defaults; the CLI can shrink them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .assembly import two_line_check
from .closedforms import (
    TRUNC_INF,
    FamilyTag,
    einf_closed_counted,
    enumerate_families,
    family_torsion,
    leading_disjoint,
)
from .errors import InputError, InvariantError, VerificationFailure
from .graded import PrimeContext, differences, geo
from .nygaard import SSPage, Variant, run_to_einf
from .trkernel import PageSet, complete_to_kernel, probe_element_torsion, tr_gr_module

#: What a case may raise to fail its check; anything else is a bug.
RECORDED = (InvariantError, VerificationFailure)


@dataclass
class Check:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{mark} {self.suite}: {self.name}{tail}"


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"suite": c.suite, "name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _compare_page(ctx, n, ell, variant, window, v1_cutoff):
    """AC1 kernel: oracle page vs closed form.

    Returns the oracle page's _signature; raises VerificationFailure at the
    first differing dimension, else torsion multiplicity, and
    InvariantError on an uncertified torsion.
    """
    table, gens, uncertified = run_to_einf(SSPage(ctx, n, ell, variant, window, v1_cutoff)).counted(window)
    closed_dims, closed_gens = einf_closed_counted(ctx, n, ell, variant, window, v1_cutoff)
    diff = differences(table.entries, closed_dims.entries)
    if diff:
        key, a, b = diff[0]
        raise VerificationFailure(f"dim at (stem,line)={key}: oracle {a} closed {b}")
    if uncertified is not None:
        raise InvariantError(f"uncertified torsion at {tuple(uncertified.bidegree)} ({uncertified.representative})")
    diff = differences(gens, closed_gens)
    if diff:
        (d, s, order), a, b = diff[0]
        raise VerificationFailure(f"torsion multiset at {(d, s)}: order {order} oracle x{a} closed x{b}")
    return _signature(table.entries, gens)


def suite_einf(ps=(2, 3, 5), n_max=3, deg_max=None, ell_max=None, double_cutoff=False) -> list:
    """AC1 (and the cutoff half of AC9 when double_cutoff is set).

    The cutoff-doubling check reuses the signature of each base page the
    AC1 loop already ran; only the pages it did not reach are built again.
    """
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        hi = deg_max if deg_max is not None else 4 * p**3
        window = (-hi, hi)
        lmax = ell_max if ell_max is not None else p * p
        ells = [0] + [l for l in range(1, lmax + 1) if l % p]
        for n in range(n_max + 1):
            V = geo(p, 0, n) + 1
            for variant in (Variant.HFP, Variant.TATE, Variant.MUINV):
                worst = ""
                base_signatures = {}
                try:
                    for ell in ells:
                        base_signatures[ell] = _compare_page(ctx, n, ell, variant, window, V)
                except RECORDED as exc:
                    worst = f"l={ell}: {exc}"
                checks.append(
                    Check("einf", f"AC1 p={p} n={n} {variant.value} oracle=closed, stems |d|<={hi}", not worst, worst)
                )
                if double_cutoff:
                    worst2 = ""
                    try:
                        for ell in ells:
                            base = base_signatures.get(ell) or _page_signature(ctx, n, ell, variant, window, V)
                            if base != _page_signature(ctx, n, ell, variant, window, 2 * V):
                                raise VerificationFailure("output changed under cutoff doubling")
                    except RECORDED as exc:
                        worst2 = f"l={ell}: {exc}"
                    checks.append(
                        Check("einf", f"AC9 p={p} n={n} {variant.value} cutoff doubling stable", not worst2, worst2)
                    )
    return checks


def _signature(dims: dict, gens: Counter) -> tuple:
    """What cutoff doubling must not change: the dimensions and the
    (stem, line, torsion) multiset of the certified generators."""
    return tuple(sorted(dims.items())), tuple(sorted(gens.items()))


def _page_signature(ctx, n, ell, variant, window, v1_cutoff):
    table, gens, _uncertified = run_to_einf(SSPage(ctx, n, ell, variant, window, v1_cutoff)).counted(window)
    return _signature(table.entries, gens)


def suite_families(ps=(2, 3), ell_max=8, stem_max=300) -> list:
    """AC2: every family element is a kernel chain with the stated torsion."""
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        for ell in [l for l in range(1, ell_max + 1) if l % p]:
            window = (0, stem_max)
            elems = enumerate_families(ctx, ell, TRUNC_INF, window)
            if not leading_disjoint(elems):
                checks.append(Check("families", f"AC2 p={p} l={ell} leading terms disjoint", False))
                continue
            checks.append(Check("families", f"AC2 p={p} l={ell} leading terms disjoint", True))
            top = max((el.n for el in elems), default=0) + 2
            maxtors = max((el.torsion for el in elems), default=1)
            pages = PageSet(ctx, ell, top, (0, stem_max + ctx.q * (maxtors + 2)), maxtors + 4)
            bad = ""
            bad_t = ""
            count = 0
            for el in elems:
                count += 1
                try:
                    comps = complete_to_kernel(el.leading(), pages)
                except RECORDED as exc:
                    bad = f"{el.label()}: {exc}"
                    break
                if comps != list(el.components):
                    bad = f"{el.label()}: solver chain {comps} != stated {list(el.components)}"
                    break
                probed = probe_element_torsion(pages, comps)
                if probed != el.torsion:
                    bad_t = f"{el.label()}: probed {probed} stated {el.torsion}"
                    break
                # truncation behavior: drop components above level m
                for m in (el.n, el.n + 1):
                    want_m = family_torsion(el.tag, ctx, el.n, ell, el.r, el.index, m)
                    probed_m = probe_element_torsion(pages, [cls for cls in comps if cls[0] <= m])
                    if probed_m != want_m:
                        bad_t = f"{el.label()} at trunc {m}: probed {probed_m} stated {want_m}"
                        break
                if bad_t:
                    break
            checks.append(
                Check("families", f"AC2 p={p} l={ell} chains solve ({count} elements, stems<={stem_max})", not bad, bad)
            )
            checks.append(
                Check("families", f"AC2 p={p} l={ell} torsion orders match", not (bad or bad_t), bad_t or bad)
            )
            # mu-tail families of the truncated diagrams
            bad_fg = ""
            for m in range(0, 3):
                m_elems = enumerate_families(ctx, ell, m, window)
                if not leading_disjoint(m_elems):
                    bad_fg = f"trunc {m}: leading terms collide"
                    break
                for el in (e for e in m_elems if e.tag in (FamilyTag.F, FamilyTag.G)):
                    probed = probe_element_torsion(pages, [el.leading()])
                    if probed != el.torsion:
                        bad_fg = f"{el.label()} trunc {m}: probed {probed} stated {el.torsion}"
                        break
                if bad_fg:
                    break
            checks.append(Check("families", f"AC2 p={p} l={ell} truncated mu-tails", not bad_fg, bad_fg))
    return checks


def suite_tr(ps=(2, 3), ell_max=8, m_max=3, stem_max=200, stability=True) -> list:
    """AC3 (main theorem), AC4 (surjectivity), truncation half of AC9.

    Each (p, l, m) is one tr_gr_module run in mode "both", which raises
    InvariantError unless gr(phi - can) is onto every Tate piece and v1
    onto the kernel (a FAIL AC4), and VerificationFailure where the two
    routes differ (a FAIL AC3).  The table of a run that returns is the
    closed table, so AC9 reads the first difference of two consecutive
    ones: truncation m may first show at stem 2*l*p^m - 2, not below.
    """
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        window = (0, stem_max)
        for ell in [l for l in range(1, ell_max + 1) if l % p]:
            prev = None
            for m in range(m_max + 1):
                case = f"p={p} l={ell} m={m}"
                try:
                    res = tr_gr_module(ctx, ell, m, window, mode="both", with_surjectivity=True)
                except InvariantError as exc:
                    checks.append(Check("tr", f"AC4 {case} gr(phi-can) surjective", False, str(exc)))
                    prev = None
                    continue
                except VerificationFailure as exc:
                    checks.append(Check("tr", f"AC3 {case} oracle=closed", False, str(exc)))
                    prev = None
                    continue
                checks.append(Check("tr", f"AC3 {case} oracle=closed", True))
                pieces = res.surjectivity.pieces_checked
                checks.append(Check("tr", f"AC4 {case} gr(phi-can) surjective ({pieces} pieces)", True))
                table = res.decomposition.dims(ctx, window).entries
                if stability and prev is not None:
                    diff = differences(prev, table)
                    bound = diff[0][0][0] if diff else stem_max + 1
                    floor = min(2 * ell * p**m - 2, stem_max + 1)
                    bad = "" if bound >= floor else f"stability bound {bound} below expected floor {floor}"
                    checks.append(Check("tr", f"AC9 p={p} l={ell} m={m-1}->{m} stable below stem {bound}", not bad, bad))
                prev = table
    return checks


def suite_assembly(ps=(2, 3, 5), stem_max=300) -> list:
    """AC6: the 2-line carries only del*l1 powers, TR summands by brute force."""
    checks = []
    for p in ps:
        name = f"AC6 p={p} two-line check, stems<={stem_max}"
        try:
            rep = two_line_check(PrimeContext(p), (0, stem_max), mode="oracle")
        except RECORDED as exc:
            checks.append(Check("assembly", name, False, str(exc)))
            continue
        checks.append(Check("assembly", name, rep.ok, str(rep.violations[:3]) if rep.violations else ""))
    return checks


SUITE_NAMES = ("einf", "families", "tr", "assembly")


def run_suite(
    name: str,
    ps=None,
    n_max=None,
    deg_max=None,
    ell_max=None,
    m_max=None,
    double_cutoff=False,
) -> VerifyReport:
    """Run one suite, or all four in order ("all"), from the verify flags.

    Each flag maps to suite parameters the same way whichever suites run;
    None keeps a suite's acceptance default.  ps names the primes and
    deg_max bounds the stems of every suite; ell_max bounds the twists of
    einf, families and tr; n_max and double_cutoff reach einf, m_max tr.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise InputError(f"unknown suite {name}; pick from {list(SUITE_NAMES)} or 'all'")

    def given(**kw):
        return {k: v for k, v in kw.items() if v is not None}

    report = VerifyReport()
    if name in ("einf", "all"):
        report.checks += suite_einf(
            **given(ps=ps, n_max=n_max, deg_max=deg_max, ell_max=ell_max), double_cutoff=double_cutoff
        )
    if name in ("families", "all"):
        report.checks += suite_families(**given(ps=ps, ell_max=ell_max, stem_max=deg_max))
    if name in ("tr", "all"):
        report.checks += suite_tr(**given(ps=ps, ell_max=ell_max, m_max=m_max, stem_max=deg_max))
    if name in ("assembly", "all"):
        report.checks += suite_assembly(**given(ps=ps, stem_max=deg_max))
    return report
