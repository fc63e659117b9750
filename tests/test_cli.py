import json
import os

import pytest

from synlab import cache, nygaard
from synlab.cli import main
from synlab.graded import DimTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_syntomic_json(capsys):
    code, out, _ = run(capsys, "syntomic", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "20")
    assert code == 0
    table = DimTable.from_json(out)
    assert table.params == {"p": 3, "n": 3, "k": 1}
    assert table.get(-1, 1) == 1
    # round trip
    assert DimTable.from_json(table.to_json()).entries == table.entries


def test_csv_format(capsys):
    code, out, _ = run(capsys, "tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stem,line,weight,dim"
    assert all(len(row.split(",")) == 4 for row in lines[1:])


def test_betti_bound(capsys):
    code, out, _ = run(capsys, "betti-bound", "--p", "3", "--d", "3")
    assert code == 0 and out.strip() == "3"


def test_einf_cross_checked(capsys):
    code, out, _ = run(
        capsys, "einf", "--p", "3", "--n", "1", "--ell", "1", "--variant", "hfp",
        "--deg-min", "-4", "--deg-max", "16", "--mode", "both",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["meta"]["cross_checked"] is True


def test_tr_table(capsys):
    code, out, _ = run(capsys, "tr", "--p", "3", "--ell", "1", "--m", "1", "--deg-min", "0", "--deg-max", "30")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] and obj["meta"]["m"] == 1


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "syntomic", "--p", "4", "--n", "3", "--k", "1", "--deg-max", "10")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "ktheory", "--p", "3", "--n", "3", "--k", "3", "--deg-max", "10")
    assert code == 2
    code, _, _ = run(capsys, "syntomic", "--p", "3", "--n", "2", "--k", "2", "--deg-max", "10")
    assert code == 2


def test_cache_transparency(tmp_path, capsys):
    args = ["syntomic", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "16"]
    code, plain, _ = run(capsys, *args)
    cached_args = args + ["--cache-dir", str(tmp_path)]
    code1, first, _ = run(capsys, *cached_args)
    code2, second, _ = run(capsys, *cached_args)
    assert code == code1 == code2 == 0
    assert plain == first == second
    assert any(name.endswith(".json") for name in os.listdir(tmp_path))


@pytest.mark.parametrize("corrupt", ["truncated", "empty", "no-payload"])
def test_unreadable_cache_entry_is_a_miss(tmp_path, capsys, corrupt):
    args = ["tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "8"]
    code, plain, _ = run(capsys, *args)
    cached_args = args + ["--cache-dir", str(tmp_path)]
    run(capsys, *cached_args)
    (entry,) = tmp_path.iterdir()
    text = entry.read_text()
    entry.write_text({"truncated": text[: len(text) // 2], "empty": "", "no-payload": "{}"}[corrupt])
    code1, first, _ = run(capsys, *cached_args)
    assert code == code1 == 0 and first == plain
    assert "payload" in json.loads(entry.read_text())  # rewritten by the recompute
    code2, second, _ = run(capsys, *cached_args)
    assert code2 == 0 and second == plain


def test_cache_key_covers_the_sources(tmp_path, capsys, monkeypatch):
    args = ["tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "8", "--cache-dir", str(tmp_path)]
    code, first, _ = run(capsys, *args)
    key = cache.cache_key("tc", {"p": 3})
    (entry,) = tmp_path.iterdir()
    monkeypatch.setattr(cache, "source_fingerprint", lambda: "edited sources")
    assert cache.cache_key("tc", {"p": 3}) != key
    assert cache.lookup(str(tmp_path), entry.stem) is not None
    code2, second, _ = run(capsys, *args)
    assert code == code2 == 0 and second == first
    assert len(list(tmp_path.iterdir())) == 2  # a miss: recomputed under a new key


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYNLAB_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "betti-bound", "--p", "2", "--d", "1")
    assert code == 0 and out.strip() == "4"  # betti-bound is uncached but must not crash
    code, out1, _ = run(capsys, "tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "8")
    code, out2, _ = run(capsys, "tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "8")
    assert out1 == out2
    assert os.listdir(tmp_path)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "syntomic", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "12", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert DimTable.from_json(path.read_text()).get(0, 0) == 1


def test_verify_suite_exit_codes(capsys, monkeypatch):
    code, out, err = run(
        capsys, "verify", "--suite", "assembly", "--p", "3", "--two-line-max", "40"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert "PASS" in err

    import synlab.cli as climod
    from synlab.verify import Check, VerifyReport

    monkeypatch.setattr(climod, "run_suite", lambda *a, **k: VerifyReport([Check("x", "forced", False, "boom")]))
    code, out, err = run(capsys, "verify", "--suite", "einf")
    assert code == 3
    assert json.loads(out)["ok"] is False


def test_verify_einf_small_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "einf", "--p", "3", "--n-max", "1", "--deg-max", "30", "--ell-max", "2"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_flags_map_the_same_under_all(capsys, monkeypatch):
    import synlab.verify as verifymod

    calls = []
    for name in ("einf", "families", "tr", "assembly"):
        def record(name=name, **kw):
            calls.append((name, kw))
            return []

        monkeypatch.setattr(verifymod, f"suite_{name}", record)
    flags = ["--p", "5", "--p", "3", "--n-max", "1", "--deg-max", "40", "--ell-max", "2", "--m-max", "1",
             "--double-cutoff"]
    single = []
    for name in ("einf", "families", "tr", "assembly"):
        code, _, _ = run(capsys, "verify", "--suite", name, *flags)
        assert code == 0
        single += calls
        calls.clear()
    code, _, _ = run(capsys, "verify", "--suite", "all", *flags)
    assert code == 0
    assert calls == single == [
        ("einf", {"ps": (3, 5), "n_max": 1, "deg_max": 40, "ell_max": 2, "double_cutoff": True}),
        ("families", {"ps": (3,), "ell_max": 2, "stem_max": 40}),
        ("tr", {"ps": (3,), "ell_max": 2, "m_max": 1, "stem_max": 40}),
        ("assembly", {"ps": (3, 5), "two_line_max": 40}),
    ]
    calls.clear()
    run(capsys, "verify", "--suite", "all", "--deg-max", "40", "--two-line-max", "50")
    assert calls[-1] == ("assembly", {"two_line_max": 50})
    calls.clear()
    run(capsys, "verify", "--suite", "tr", "--p", "5")
    assert calls == [("tr", {"ps": (2, 3)})]


def test_size_guard_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(nygaard, "MAX_LADDERS", 10)
    code, out, err = run(capsys, "einf", "--p", "3", "--n", "1", "--ell", "1", "--deg-max", "30", "--mode", "oracle")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
