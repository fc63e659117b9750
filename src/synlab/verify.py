"""Cross-verification suites: every headline computation two ways, exactly.

Each suite returns a list of Check records, one per case, by one rule: a
case walks its whole grid in order, and the first VerificationFailure (two
routes differ, at graded.differences' first key) or InvariantError (a
route's own check failed) it raises ends it as a FAIL whose detail is the
failing item's label and the message; a case that raises nothing passes.
The acceptance grids are the defaults; the CLI can shrink them.
"""

from __future__ import annotations

from typing import NamedTuple

from .assembly import two_line_check
from .closedforms import (
    TRUNC_INF,
    FamilyTag,
    einf_closed_counted,
    enumerate_families,
    family_torsion,
    repeated_leading,
)
from .errors import InputError, InvariantError, VerificationFailure
from .graded import PrimeContext, differences, geo, orbit_dims
from .nygaard import SSPage, Variant, run_to_einf
from .trkernel import PageSet, complete_to_kernel, probe_element_torsion, tr_gr_module

#: What a case may raise to fail its check; anything else is a bug.
RECORDED = (InvariantError, VerificationFailure)


class Check(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{mark} {self.suite}: {self.name}{tail}"


class VerifyReport:
    def __init__(self, checks: list | None = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "checks": [c._asdict() for c in self.checks]}


def _case(suite: str, name: str, walk, *args) -> Check:
    """The check of the case walk(*args), by the module's one rule.  A
    generator walk yields each item's label before it checks that item; a
    plain function checks one unlabelled item."""
    label = None
    try:
        for label in walk(*args) or ():
            pass
    except RECORDED as exc:
        return Check(suite, name, False, str(exc) if label is None else f"{label}: {exc}")
    return Check(suite, name, True)


def _oracle_page(page: SSPage):
    """(dims, gens, uncertified) of a placed oracle page, which this builds
    and runs: its dimensions on its window, the (stem, line, torsion)
    multiset of its certified generators, and its first uncertified
    generator or None."""
    page._build()
    table, gens, uncertified = run_to_einf(page).counted(page.window)
    return table.entries, gens, uncertified


def _differ(dims, gens, other_dims, other_gens, names, uncertified=None):
    """Raise VerificationFailure at the first dimension where two pages'
    (dims, gens) differ, else at the first torsion multiplicity, naming
    each side's count after names; InvariantError between the two, on an
    uncertified torsion of the first page."""
    diff = differences(dims, other_dims)
    if diff:
        key, a, b = diff[0]
        raise VerificationFailure(f"dim at (stem,line)={key}: {names[0]} {a} {names[1]} {b}")
    if uncertified is not None:
        raise InvariantError(f"uncertified torsion at {tuple(uncertified.bidegree)} ({uncertified.representative})")
    diff = differences(gens, other_gens)
    if diff:
        (d, s, order), a, b = diff[0]
        raise VerificationFailure(f"torsion multiset at {(d, s)}: order {order} {names[0]} x{a} {names[1]} x{b}")


def _compare_page(page: SSPage):
    """AC1 kernel: the (dims, gens) of a placed oracle page, which must be
    the closed form's.  Raises VerificationFailure at the first differing
    dimension, else torsion multiplicity, and InvariantError on an
    uncertified torsion."""
    dims, gens, uncertified = _oracle_page(page)
    closed_dims, closed_gens = einf_closed_counted(page.ctx, page.n, page.ell, page.variant, page.window,
                                                   page.v1_cutoff)
    _differ(dims, gens, closed_dims.entries, closed_gens, ("oracle", "closed"), uncertified)
    return dims, gens


def suite_einf(ps=(2, 3, 5), n_max=3, deg_max=None, ell_max=None, double_cutoff=False) -> list:
    """AC1 (and the cutoff half of AC9 when double_cutoff is set).

    Every page of the grid, at cutoff V and under double_cutoff at 2V, is
    placed (SSPage.placed) before the first is built, so a page past
    MAX_LADDERS anywhere in the grid raises ResourceError before any work.
    A case builds each placed page it reads; only a page a failed case
    already built is placed again.  Cutoff doubling must not change a
    page's (dims, gens).  That check reuses the base pages the AC1 case
    reached, and builds only the rest.
    """
    grid = []  # (ctx, stem bound, n, variant, twists, V, {(twist, cutoff): placed page})
    for p in ps:
        ctx = PrimeContext(p)
        hi = deg_max if deg_max is not None else 4 * p**3
        lmax = ell_max if ell_max is not None else p * p
        ells = [0] + [l for l in range(1, lmax + 1) if l % p]
        for n in range(n_max + 1):
            V = geo(p, 0, n) + 1
            cutoffs = (V, 2 * V) if double_cutoff else (V,)
            for variant in (Variant.HFP, Variant.TATE, Variant.MUINV):
                placed = {(ell, cut): SSPage.placed(ctx, n, ell, variant, (-hi, hi), cut)
                          for ell in ells for cut in cutoffs}
                grid.append((ctx, hi, n, variant, ells, V, placed))
    checks = []
    for ctx, hi, n, variant, ells, V, placed in grid:
        base_pages = {}

        def take(ell, cut):
            page = placed.pop((ell, cut), None)
            return SSPage.placed(ctx, n, ell, variant, (-hi, hi), cut) if page is None else page

        def pages():
            for ell in ells:
                yield f"l={ell}"
                base_pages[ell] = _compare_page(take(ell, V))

        def doubled():
            for ell in ells:
                yield f"l={ell}"
                dims, gens = base_pages.get(ell) or _oracle_page(take(ell, V))[:2]
                twice_dims, twice_gens, _uncertified = _oracle_page(take(ell, 2 * V))
                _differ(dims, gens, twice_dims, twice_gens, ("base", "doubled"))

        checks.append(_case("einf", f"AC1 p={ctx.p} n={n} {variant.value} oracle=closed, stems |d|<={hi}", pages))
        if double_cutoff:
            checks.append(_case("einf", f"AC9 p={ctx.p} n={n} {variant.value} cutoff doubling stable", doubled))
    return checks


def _disjoint_leading(elems):
    """Raise VerificationFailure naming the first repeated leading class."""
    cls = repeated_leading(elems)
    if cls is not None:
        raise VerificationFailure(f"leading terms collide at {cls}")


def _solved_chain(el, pages) -> list:
    """The solver chain of a family element, which must be the stated one."""
    comps = complete_to_kernel(el.leading(), pages)
    if comps != list(el.components):
        raise VerificationFailure(f"solver chain {comps} != stated {list(el.components)}")
    return comps


def _probe(pages, comps, stated):
    """Raise VerificationFailure unless the chain comps has the stated torsion."""
    probed = probe_element_torsion(pages, comps)
    if probed != stated:
        raise VerificationFailure(f"probed {probed} stated {stated}")


def _chains(elems, pages):
    for el in elems:
        yield el.label()
        _solved_chain(el, pages)


def _torsions(ctx, ell, elems, pages):
    """Probed torsions of each chain, untruncated and cut above level n and n + 1."""
    for el in elems:
        yield el.label()
        comps = _solved_chain(el, pages)
        _probe(pages, comps, el.torsion)
        for m in (el.n, el.n + 1):
            yield f"{el.label()} at trunc {m}"
            stated = family_torsion(el.tag, ctx, el.n, ell, el.r, el.index, m)
            _probe(pages, [cls for cls in comps if cls[0] <= m], stated)


def _mu_tails(ctx, ell, window, pages):
    """Disjoint leading terms and the F, G mu-tail torsions at truncations 0, 1, 2."""
    for m in range(0, 3):
        yield f"trunc {m}"
        m_elems = enumerate_families(ctx, ell, m, window)
        _disjoint_leading(m_elems)
        for el in (e for e in m_elems if e.tag in (FamilyTag.F, FamilyTag.G)):
            yield f"{el.label()} trunc {m}"
            _probe(pages, [el.leading()], el.torsion)


def suite_families(ps=(2, 3), ell_max=8, stem_max=300) -> list:
    """AC2: every family element is a kernel chain with the stated torsion.

    Once the leading terms are disjoint, three cases walk the elements
    independently: chains solve, torsion orders match (an element whose
    chain does not solve fails with its message), truncated mu-tails.
    """
    checks = []
    for p in ps:
        ctx = PrimeContext(p)
        for ell in [l for l in range(1, ell_max + 1) if l % p]:
            name = f"AC2 p={p} l={ell}"
            window = (0, stem_max)
            elems = enumerate_families(ctx, ell, TRUNC_INF, window)
            checks.append(_case("families", f"{name} leading terms disjoint", _disjoint_leading, elems))
            if not checks[-1].passed:
                continue
            top = max((el.n for el in elems), default=0) + 2
            pages = PageSet(ctx, ell, top, window, max((el.torsion for el in elems), default=1))
            checks.append(_case("families", f"{name} chains solve ({len(elems)} elements, stems<={stem_max})",
                                _chains, elems, pages))
            checks.append(_case("families", f"{name} torsion orders match", _torsions, ctx, ell, elems, pages))
            checks.append(_case("families", f"{name} truncated mu-tails", _mu_tails, ctx, ell, window, pages))
    return checks


def _stable_above(bound, floor):
    if bound < floor:
        raise VerificationFailure(f"stability bound {bound} below expected floor {floor}")


def suite_tr(ps=(2, 3), ell_max=8, m_max=3, stem_max=200) -> list:
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
                except RECORDED as exc:
                    failed = (f"AC4 {case} gr(phi-can) surjective" if isinstance(exc, InvariantError)
                              else f"AC3 {case} oracle=closed")
                    checks.append(Check("tr", failed, False, str(exc)))
                    prev = None
                    continue
                checks.append(Check("tr", f"AC3 {case} oracle=closed", True))
                pieces = res.surjectivity.pieces_checked
                checks.append(Check("tr", f"AC4 {case} gr(phi-can) surjective ({pieces} pieces)", True))
                table = orbit_dims(ctx.q, window, res.multiset.items()).entries
                if prev is not None:
                    diff = differences(prev, table)
                    bound = diff[0][0][0] if diff else stem_max + 1
                    floor = min(2 * ell * p**m - 2, stem_max + 1)
                    checks.append(_case("tr", f"AC9 p={p} l={ell} m={m-1}->{m} stable below stem {bound}",
                                        _stable_above, bound, floor))
                prev = table
    return checks


def _two_line(p, stem_max):
    rep = two_line_check(PrimeContext(p), (0, stem_max), mode="oracle")
    if rep.violations:
        raise VerificationFailure(str(rep.violations[:3]))


def suite_assembly(ps=(2, 3, 5), stem_max=300) -> list:
    """AC6: the 2-line carries only del*l1 powers, TR summands by brute force."""
    return [_case("assembly", f"AC6 p={p} two-line check, stems<={stem_max}", _two_line, p, stem_max) for p in ps]


SUITE_NAMES = ("einf", "families", "tr", "assembly")


def run_suite(name: str, ps=None, n_max=None, deg_max=None, ell_max=None, m_max=None,
              double_cutoff=False) -> VerifyReport:
    """Run one suite, or all four in order ("all"), from the verify flags.

    Each flag maps to suite parameters the same way whichever suites run;
    None keeps a suite's acceptance default.  ps names the primes and
    deg_max bounds the stems of every suite; ell_max bounds the twists of
    einf, families and tr; n_max and double_cutoff reach einf, m_max tr.
    A flag that leaves a suite it runs with no case or an empty stem window,
    or a p that is not prime, raises InputError before any suite runs.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise InputError(f"unknown suite {name}; pick from {list(SUITE_NAMES)} or 'all'")
    runs = SUITE_NAMES if name == "all" else (name,)
    # (flag, value, least value with a case, suites reached); einf always has twist 0
    for flag, value, least, reaches in (("--deg-max", deg_max, 0, SUITE_NAMES), ("--n-max", n_max, 0, ("einf",)),
                                        ("--ell-max", ell_max, 1, ("families", "tr")), ("--m-max", m_max, 0, ("tr",))):
        empty = [suite for suite in runs if suite in reaches]
        if value is not None and value < least and empty:
            raise InputError(f"{flag} {value} leaves suite {empty[0]} with no case or an empty stem window; "
                             f"need {flag} >= {least}")
    for p in ps or ():
        PrimeContext(p)

    def given(**kw):
        return {k: v for k, v in kw.items() if v is not None}

    report = VerifyReport()
    if name in ("einf", "all"):
        report.checks += suite_einf(**given(ps=ps, n_max=n_max, deg_max=deg_max, ell_max=ell_max),
                                    double_cutoff=double_cutoff)
    if name in ("families", "all"):
        report.checks += suite_families(**given(ps=ps, ell_max=ell_max, stem_max=deg_max))
    if name in ("tr", "all"):
        report.checks += suite_tr(**given(ps=ps, ell_max=ell_max, m_max=m_max, stem_max=deg_max))
    if name in ("assembly", "all"):
        report.checks += suite_assembly(**given(ps=ps, stem_max=deg_max))
    return report
