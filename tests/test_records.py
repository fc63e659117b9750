"""The record classes are plain classes and NamedTuples: importing the CLI
loads neither dataclasses nor inspect, and each record keeps its
constructor, validation, fresh defaults, immutability and equality."""

import json
import os
import subprocess
import sys

import pytest

import synlab
from synlab.assembly import AssemblyParams, TwoLineReport
from synlab.errors import InputError
from synlab.fplinalg import FpMatrix
from synlab.graded import TORSION_FREE, Bidegree, CyclicDecomposition, DimTable, Generator, Monomial, PrimeContext
from synlab.nygaard import EInfClass, Segment
from synlab.trkernel import SurjectivityReport, TrComparison, TrResult
from synlab.verify import Check, VerifyReport

SRC = os.path.dirname(os.path.dirname(os.path.abspath(synlab.__file__)))
HEAVY = ("dataclasses", "inspect")


def _loaded_after(code: str) -> list:
    probe = f"import sys; sys.path.insert(0, {SRC!r}); {code}; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    preloaded = _loaded_after("pass")
    if preloaded:
        pytest.skip(f"the interpreter loads {preloaded} before synlab")
    assert _loaded_after("import synlab.cli") == []


FROZEN = [
    (PrimeContext(3), "p", PrimeContext(3)),
    (Monomial(1, 2, 3, 4, 1, 0), "lam", Monomial(1, 2, 3, 4, 1, 0)),
    (Generator("g", Bidegree(5, 1), 2), "torsion", Generator("g", Bidegree(5, 1), 2)),
    (EInfClass(Monomial(1), Bidegree(0, 0), TORSION_FREE, True), "certified",
     EInfClass(Monomial(1), Bidegree(0, 0), TORSION_FREE, True)),
    (AssemblyParams(3, 4, 1, (-2, 10)), "k", AssemblyParams(3, 4, 1, (-2, 10))),
]


@pytest.mark.parametrize("record, field, twin", FROZEN, ids=[type(r).__name__ for r, _f, _t in FROZEN])
def test_frozen_records_refuse_assignment_and_hash_by_value(record, field, twin):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == twin and hash(record) == hash(twin) and len({record, twin}) == 1


def test_fp_matrix_refuses_assignment():
    m = FpMatrix(3, 2, 2, {(0, 1): 2})
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m == FpMatrix(3, 2, 2, {(0, 1): 2}) and m.entries == {(0, 1): 2}


def test_defaults_are_fresh_per_instance():
    tables = [DimTable({}, {}, (0, 1)) for _ in range(2)]
    assert tables[0].notes == {} and tables[0].notes is not tables[1].notes
    reports = [SurjectivityReport() for _ in range(2)]
    assert reports[0].failures is not reports[1].failures and reports[0].margins is not reports[1].margins
    assert (reports[0].failures, reports[0].pieces_checked, reports[0].margins) == ([], 0, {})
    decs = [CyclicDecomposition() for _ in range(2)]
    assert decs[0].entries == [] and decs[0].entries is not decs[1].entries
    two_line = [TwoLineReport() for _ in range(2)]
    assert two_line[0].violations is not two_line[1].violations and two_line[0].line2_count == 0
    verify_reports = [VerifyReport() for _ in range(2)]
    assert verify_reports[0].checks is not verify_reports[1].checks
    matrices = [FpMatrix(3, 1, 1) for _ in range(2)]
    assert matrices[0].entries == {} and matrices[0].entries is not matrices[1].entries
    segments = [Segment(0, 0, range(3), 1, 0, 2, 0) for _ in range(2)]
    assert segments[0].split is not segments[1].split and segments[0].lo is None


def test_a_given_container_is_kept_not_copied():
    entries, notes = {(0, 0): 1}, {"x": 1}
    table = DimTable({}, entries, (0, 1), notes)
    assert table.entries is entries and table.notes is notes
    gens = [Generator("g", Bidegree(0, 0), 1)]
    assert CyclicDecomposition(gens).entries is gens


@pytest.mark.parametrize("make, message", [
    (lambda: PrimeContext(4), "p=4 is not prime"),
    (lambda: Monomial(lam=2), "exterior exponents must be 0 or 1"),
    (lambda: Monomial(u_exp=-1), "exterior exponents must be 0 or 1"),
    (lambda: Monomial(level=-1), "level and twist must be nonnegative"),
    (lambda: Generator("g", Bidegree(0, 0), torsion=0), "bad torsion order 0"),
    (lambda: Generator("g", Bidegree(0, 0), torsion=1.5), "bad torsion order 1.5"),
    (lambda: FpMatrix(4, 1, 1), "modulus 4 is not prime"),
    (lambda: FpMatrix(3, 1, 1, {(1, 0): 1}), "entry (1,0) outside 1x1"),
    (lambda: FpMatrix(3, 1, 1, {(0, 0): 3}), "entry (0,0)=3 not reduced and nonzero mod 3"),
    (lambda: AssemblyParams(3, 1, 1, (0, 10)), "need n >= 2"),
    (lambda: AssemblyParams(4, 3, 1, (0, 10)), "p=4 is not prime"),
    (lambda: AssemblyParams(3, 3, 0, (0, 10)), "need k >= 1"),
    (lambda: AssemblyParams(2, 4, 2, (0, 10)), "at p = 2 the quotient needs 4 | k (v1^4 self map)"),
])
def test_validation_messages(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


def test_keyword_construction_and_defaults():
    assert Monomial(t_exp=1, mu_exp=1) == Monomial(0, 0, 1, 1, 0, 0)
    assert Generator("g", Bidegree(0, 0), TORSION_FREE).certified is True
    assert Check("s", "n", True).detail == ""
    res = TrResult({})
    assert (res.decomposition, res.comparison, res.surjectivity) == (None, None, None)
    assert TrComparison([], []).ok and not TrComparison([1], []).ok


def test_dim_tables_compare_by_value():
    a = DimTable({"p": 3}, {(0, 0): 1}, (0, 1), {"m": 1})
    assert a == DimTable({"p": 3}, {(0, 0): 1}, (0, 1), {"m": 1})
    assert a != DimTable({"p": 3}, {(0, 0): 1}, (0, 1))
    assert a != DimTable({"p": 3}, {(0, 0): 2}, (0, 1), {"m": 1})


def test_verify_report_json_keys_and_order():
    report = VerifyReport([Check("einf", "AC1", True), Check("tr", "AC3", False, "boom")])
    assert json.dumps(report.to_json_obj()) == (
        '{"ok": false, "checks": [{"suite": "einf", "name": "AC1", "passed": true, "detail": ""}, '
        '{"suite": "tr", "name": "AC3", "passed": false, "detail": "boom"}]}'
    )
