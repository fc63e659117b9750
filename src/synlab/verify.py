"""Cross-verification suites: every headline computation two ways, exactly.

Each suite returns a list of Check records (machine readable, with the
first counterexample coordinates in `detail` on failure).  The acceptance
grids are the defaults; the CLI can shrink them for smoke runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .assembly import two_line_check
from .closedforms import (
    TRUNC_INF,
    FamilyTag,
    einf_closed,
    enumerate_families,
    family_torsion,
    leading_disjoint,
    tr_closed_decomposition,
)
from .errors import InputError
from .graded import PrimeContext, geo
from .nygaard import SSPage, Variant, run_to_einf
from .trkernel import PageSet, complete_to_kernel, probe_element_torsion, tr_gr_module


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

    Returns (detail, signature): detail is '' when the two agree, and
    signature is the oracle page's _page_signature, or None when the
    comparison stopped before reading the page's classes.
    """
    page = SSPage(ctx, n, ell, variant, window, v1_cutoff)
    res = run_to_einf(page)
    lo, hi = window
    closed = einf_closed(ctx, n, ell, variant, (lo - ctx.q * (v1_cutoff + 1), hi))
    d_or = {k: v for k, v in res.dim_table(window).entries.items() if v}
    d_cl = {k: v for k, v in closed.dims(ctx, window).entries.items() if v}
    if d_or != d_cl:
        key = next(k for k in sorted(set(d_or) | set(d_cl)) if d_or.get(k, 0) != d_cl.get(k, 0))
        return f"dim at (stem,line)={key}: oracle {d_or.get(key, 0)} closed {d_cl.get(key, 0)}", None
    classes = res.classes(window)
    signature = _signature(d_or, classes)
    uncert = [c for c in classes if not c.certified]
    if uncert:
        c = uncert[0]
        return f"uncertified torsion at {tuple(c.bidegree)} ({c.representative})", signature
    t_or = Counter((tuple(c.bidegree), c.v1_torsion) for c in classes)
    t_cl = Counter((tuple(g.bidegree), g.torsion) for g in closed.generators_in(window))
    if t_or != t_cl:
        key = next(k for k in sorted(set(t_or) | set(t_cl)) if t_or[k] != t_cl[k])
        return f"torsion multiset at {key[0]}: order {key[1]} oracle x{t_or[key]} closed x{t_cl[key]}", signature
    return "", signature


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
                for ell in ells:
                    detail, base_signatures[ell] = _compare_page(ctx, n, ell, variant, window, V)
                    if detail:
                        worst = f"l={ell}: {detail}"
                        break
                checks.append(
                    Check("einf", f"AC1 p={p} n={n} {variant.value} oracle=closed, stems |d|<={hi}", not worst, worst)
                )
                if double_cutoff:
                    worst2 = ""
                    for ell in ells:
                        base = base_signatures.get(ell) or _page_signature(ctx, n, ell, variant, window, V)
                        doubled = _page_signature(ctx, n, ell, variant, window, 2 * V)
                        if base != doubled:
                            worst2 = f"l={ell}: output changed under cutoff doubling"
                            break
                    checks.append(
                        Check("einf", f"AC9 p={p} n={n} {variant.value} cutoff doubling stable", not worst2, worst2)
                    )
    return checks


def _signature(dims: dict, classes) -> tuple:
    """What cutoff doubling must not change: the dimensions and the certified torsion."""
    tors = tuple(sorted((tuple(c.bidegree), c.v1_torsion) for c in classes if c.certified))
    return tuple(sorted(dims.items())), tors


def _page_signature(ctx, n, ell, variant, window, v1_cutoff):
    res = run_to_einf(SSPage(ctx, n, ell, variant, window, v1_cutoff))
    dims = {k: v for k, v in res.dim_table(window).entries.items() if v}
    return _signature(dims, res.classes(window))


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
                except Exception as exc:  # InvariantError and friends
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
                    probed_m = probe_element_torsion(pages, [(lvl, mono) for lvl, mono in comps if lvl <= m])
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
                t_elems = [e for e in enumerate_families(ctx, ell, m, window) if e.tag in (FamilyTag.F, FamilyTag.G)]
                if not leading_disjoint(enumerate_families(ctx, ell, m, window)):
                    bad_fg = f"trunc {m}: leading terms collide"
                    break
                for el in t_elems:
                    probed = probe_element_torsion(pages, [el.leading()])
                    if probed != el.torsion:
                        bad_fg = f"{el.label()} trunc {m}: probed {probed} stated {el.torsion}"
                        break
                if bad_fg:
                    break
            checks.append(Check("families", f"AC2 p={p} l={ell} truncated mu-tails", not bad_fg, bad_fg))
    return checks


def _truncation_bound(ctx, ell, m, stem_max) -> int:
    """First stem where the closed-form tables at truncations m, m+1 differ.

    This is the computed stability bound of AC9: the oracle truncations must
    agree strictly below it.  When they never differ in the window, the
    bound is one past the window top.
    """
    w = (0, stem_max)
    a = tr_closed_decomposition(ctx, ell, m, w).dims(ctx, w).entries
    b = tr_closed_decomposition(ctx, ell, m + 1, w).dims(ctx, w).entries
    diffs = [k[0] for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0)]
    return min(diffs) if diffs else stem_max + 1


def suite_tr(ps=(2, 3), ell_max=8, m_max=3, stem_max=200, stability=True) -> list:
    """AC3 (main theorem), AC4 (surjectivity), truncation half of AC9."""
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        for ell in [l for l in range(1, ell_max + 1) if l % p]:
            prev = None
            for m in range(m_max + 1):
                res = tr_gr_module(ctx, ell, m, (0, stem_max), mode="both", with_surjectivity=True)
                comp = res.comparison
                detail = ""
                if not comp.ok:
                    detail = f"first mismatch {comp.dim_mismatches[:1] or comp.torsion_mismatches[:1]}"
                checks.append(Check("tr", f"AC3 p={p} l={ell} m={m} oracle=closed", comp.ok, detail))
                surj = res.surjectivity
                checks.append(
                    Check(
                        "tr",
                        f"AC4 p={p} l={ell} m={m} gr(phi-can) surjective ({surj.pieces_checked} pieces)",
                        surj.all_surjective,
                        str(surj.failures[:2]) if surj.failures else "",
                    )
                )
                if stability and prev is not None:
                    bound = _truncation_bound(ctx, ell, m - 1, stem_max)
                    floor = min(2 * ell * p**m - 2, stem_max + 1)
                    w = (0, bound - 1)
                    d_prev = {k: v for k, v in prev.dims(ctx, w).entries.items() if v}
                    d_cur = {k: v for k, v in res.decomposition.dims(ctx, w).entries.items() if v}
                    ok = d_prev == d_cur and bound >= floor
                    bad = ""
                    if bound < floor:
                        bad = f"stability bound {bound} below expected floor {floor}"
                    elif not ok:
                        key = next(k for k in sorted(set(d_prev) | set(d_cur)) if d_prev.get(k, 0) != d_cur.get(k, 0))
                        bad = f"at {key}: m={m-1} gives {d_prev.get(key, 0)}, m={m} gives {d_cur.get(key, 0)}"
                    checks.append(Check("tr", f"AC9 p={p} l={ell} m={m-1}->{m} stable below stem {bound}", ok, bad))
                prev = res.decomposition
    return checks


def suite_assembly(ps=(2, 3, 5), two_line_max=300) -> list:
    """AC6: the 2-line carries only del*l1 powers, TR summands by brute force."""
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        rep = two_line_check(ctx, (0, two_line_max), mode="oracle")
        checks.append(
            Check(
                "assembly",
                f"AC6 p={p} two-line check, stems<={two_line_max}",
                rep.ok,
                str(rep.violations[:3]) if rep.violations else "",
            )
        )
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
    two_line_max=None,
) -> VerifyReport:
    """Run one suite, or all four in order ("all"), from the verify flags.

    Each flag maps to suite parameters the same way whichever suites run;
    None keeps a suite's acceptance default.  ps names the primes of every
    suite.  deg_max bounds the stems of every suite, the two-line check
    included unless two_line_max is given.  ell_max bounds the twists of
    einf, families and tr; n_max and double_cutoff reach einf, m_max tr.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise InputError(f"unknown suite {name}; pick from {list(SUITE_NAMES)} or 'all'")
    if two_line_max is None:
        two_line_max = deg_max

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
        report.checks += suite_assembly(**given(ps=ps, two_line_max=two_line_max))
    return report
