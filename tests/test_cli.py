import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from synlab import assembly, cache, closedforms, nygaard, trkernel
from synlab.cli import main
from synlab.graded import DimTable, Generator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_syntomic_json(capsys):
    code, out, _ = run(capsys, "syntomic", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "20")
    assert code == 0
    obj = json.loads(out)
    params = {k: obj[k] for k in ("p", "n", "k")}
    entries = {(e["stem"], e["line"]): e["dim"] for e in obj["entries"]}
    assert params == {"p": 3, "n": 3, "k": 1}
    assert entries[(-1, 1)] == 1
    # round trip
    assert DimTable(params, entries, tuple(obj["window"])).to_json() + "\n" == out


def test_csv_format(capsys):
    code, out, _ = run(capsys, "tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stem,line,weight,dim"
    assert all(len(row.split(",")) == 4 for row in lines[1:])


def test_betti_bound(capsys):
    code, out, _ = run(capsys, "betti-bound", "--p", "3", "--d", "3")
    assert code == 0 and out.strip() == "3"


@pytest.mark.parametrize("argv", [
    ["einf", "--p", "3", "--n", "1", "--ell", "1", "--deg-min", "-4", "--deg-max", "16"],
    ["betti-bound", "--p", "3", "--d", "3"],
], ids=["table", "betti-bound"])
def test_a_closed_stdout_stops_quietly(argv):
    # as `synlab ... | head -3` once head has exited; stdout block-buffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    try:
        proc = subprocess.run([sys.executable, "-m", "synlab.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == b""


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


def test_tr_window_bottom_only_cuts_the_table(capsys):
    # v1-translates of generators below --deg-min still count in the window
    args = ["tr", "--p", "3", "--ell", "1", "--deg-max", "60", "--format", "csv"]
    code, full, _ = run(capsys, *args, "--deg-min", "-2")
    header, *rows = full.splitlines(keepends=True)
    want = header + "".join(row for row in rows if int(row.split(",")[0]) >= 20)
    assert len(want) < len(full)
    for mode in ("oracle", "closed", "both"):
        assert run(capsys, *args, "--deg-min", "20", "--mode", mode) == (0, want, "")


def test_tr_has_no_v1_cutoff(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tr", "--p", "3", "--ell", "1", "--deg-max", "20", "--v1-cutoff", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --v1-cutoff" in capsys.readouterr().err


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "syntomic", "--p", "4", "--n", "3", "--k", "1", "--deg-max", "10")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "ktheory", "--p", "3", "--n", "3", "--k", "3", "--deg-max", "10")
    assert code == 2
    code, _, _ = run(capsys, "syntomic", "--p", "3", "--n", "2", "--k", "2", "--deg-max", "10")
    assert code == 2
    for argv, message in (
        (["syntomic", "--p", "3", "--n", "1", "--k", "1"], "need n >= 2"),
        (["syntomic", "--p", "3", "--n", "3", "--k", "0"], "need k >= 1"),
        (["tr", "--p", "3", "--ell", "3", "--mode", "oracle"], "twist must be positive and prime to p"),
    ):
        assert run(capsys, *argv, "--deg-max", "10") == (2, "", f"error: {message}\n")


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
    entries = json.loads(path.read_text())["entries"]
    assert [e["dim"] for e in entries if (e["stem"], e["line"]) == (0, 0)] == [1]


@pytest.mark.parametrize("where", ["out-missing-dir", "out-directory", "cache-dir-a-file"])
def test_unwritable_destination_exits_two(tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    flag, dest = {
        "out-missing-dir": ("--out", tmp_path / "missing" / "x"),
        "out-directory": ("--out", tmp_path),
        "cache-dir-a-file": ("--cache-dir", tmp_path / "file"),
    }[where]
    code, out, err = run(capsys, "syntomic", "--p", "3", "--n", "4", "--k", "1", "--deg-max", "10", flag, str(dest))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and str(dest) in err and err.count("\n") == 1


def test_verify_to_an_unwritable_out_exits_two(tmp_path, capsys):
    dest = tmp_path / "missing" / "y"
    code, out, err = run(capsys, "verify", "--suite", "einf", "--p", "2", "--n-max", "0", "--deg-max", "4", "--out", str(dest))
    assert code == 2 and out == ""
    (line,) = [ln for ln in err.splitlines() if not ln.startswith("PASS ")]
    assert line == f"error: cannot write --out {dest}: No such file or directory"


def test_verify_suite_exit_codes(capsys, monkeypatch):
    code, out, err = run(
        capsys, "verify", "--suite", "assembly", "--p", "3", "--deg-max", "40"
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
        ("families", {"ps": (3, 5), "ell_max": 2, "stem_max": 40}),
        ("tr", {"ps": (3, 5), "ell_max": 2, "m_max": 1, "stem_max": 40}),
        ("assembly", {"ps": (3, 5), "stem_max": 40}),
    ]
    calls.clear()
    run(capsys, "verify", "--suite", "tr", "--p", "5")
    assert calls == [("tr", {"ps": (5,)})]


@pytest.mark.parametrize("argv", [
    "--suite tr --m-max -1",
    "--suite families --ell-max 0",
    "--suite einf --n-max -1",
    "--suite tr --p 3 --ell-max 1 --m-max 0 --deg-max -1",
    "--suite all --n-max -1 --ell-max 0 --m-max -1",
    "--suite families --deg-max -1",
    "--suite assembly --deg-max -1",
])
def test_verify_refuses_an_empty_grid_before_any_suite(capsys, monkeypatch, argv):
    import synlab.verify as verifymod

    def no_work(**kw):
        raise AssertionError("a suite ran on an empty grid")

    for name in ("einf", "families", "tr", "assembly"):
        monkeypatch.setattr(verifymod, f"suite_{name}", no_work)
    code, out, err = run(capsys, "verify", *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: --") and "no case or an empty stem window" in err


def test_size_guard_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(nygaard, "MAX_LADDERS", 10)
    code, out, err = run(capsys, "einf", "--p", "3", "--n", "1", "--ell", "1", "--deg-max", "30", "--mode", "oracle")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    code, out, err = run(capsys, "tr", "--p", "2", "--ell", "1", "--deg-max", "40", "--mode", "oracle")
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", ["syntomic", "tc", "ktheory"])
def test_closed_size_guard_exits_two(capsys, monkeypatch, command):
    def no_twist(*args, **kwargs):
        raise AssertionError("a twist was computed before the size guard")

    # the closed tally, and tr_gr_module for the other modes
    for name in ("tr_closed_decomposition", "tr_gr_module"):
        monkeypatch.setattr(assembly, name, no_twist)
    monkeypatch.setattr(closedforms.Progression, "affine", no_twist)
    code, out, err = run(capsys, command, "--p", "3", "--n", "4", "--k", "1", "--deg-max", "100000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "generators" in err and "Traceback" not in err


# stems -2..299997 is the widest window the table guard passes; at p=3,
# l=1 it holds 100,036 family elements (100,004 at m=2)
@pytest.mark.parametrize("argv", [
    ["--deg-max", "299997"],
    ["--m", "2", "--mode", "closed", "--deg-max", "299997"],
])
def test_closed_tr_size_guard_exits_two_before_any_element(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size guard")

    monkeypatch.setattr(closedforms, "enumerate_families", refuse)
    monkeypatch.setattr(closedforms.Progression, "affine", refuse)
    monkeypatch.setattr(trkernel, "TrOracle", refuse)
    code, out, err = run(capsys, "tr", "--p", "3", "--ell", "1", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "family elements" in err


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "benchmark" / "golden.json").read_text())["digests"]


@pytest.mark.parametrize("argv", [
    "tr --p 3 --ell 2 --deg-max 900 --mode closed --deg-min -2 --format json",
    "tr --p 2 --ell 1 --m 3 --deg-max 900 --mode closed --deg-min -2 --format json",
    "syntomic --p 3 --n 4 --k 1 --deg-max 600 --deg-min -2 --format json",
])
def test_closed_tables_build_no_object_per_family_element(capsys, monkeypatch, argv):
    # the closed route tallies the family progressions: no FamilyElement,
    # no enumeration and no Generator but TC(Z_p)'s, and the golden bytes
    def no_object(*args, **kwargs):
        raise AssertionError("a family element was built")

    monkeypatch.setattr(closedforms, "FamilyElement", no_object)
    monkeypatch.setattr(closedforms, "enumerate_families", no_object)
    check = Generator.__post_init__

    def only_tc_zp(self):
        assert self.label.startswith("Zp:"), f"twist generator {self.label} built"
        check(self)

    monkeypatch.setattr(Generator, "__post_init__", only_tc_zp)
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[f"cli {argv}"]


@pytest.mark.parametrize("command", ["syntomic", "tc", "ktheory"])
def test_table_modes_print_the_same_table(capsys, command):
    args = [command, "--p", "3", "--n", "4", "--k", "1", "--deg-min", "-4", "--deg-max", "16"]
    code, closed, _ = run(capsys, *args)
    assert code == 0
    for mode in ("oracle", "both"):
        code, out, _ = run(capsys, *args, "--mode", mode)
        assert code == 0 and out == closed


def test_table_mode_both_exits_three_on_a_mismatch(capsys, monkeypatch):
    closed = trkernel.tr_closed_decomposition

    def drop_lowest(ctx, ell, trunc, hi):
        multiset = closed(ctx, ell, trunc, hi)
        return multiset - Counter([min(multiset)])

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", drop_lowest)
    code, out, err = run(capsys, "tc", "--p", "3", "--n", "3", "--k", "1", "--deg-max", "12", "--mode", "both")
    assert code == 3 and out == ""
    assert err.startswith("verification failure: twist l=1")


TABLE_ARGS = {
    "einf": ["--p", "3", "--n", "1", "--ell", "1"],
    "tr": ["--p", "3", "--ell", "1"],
    "syntomic": ["--p", "3", "--n", "3", "--k", "1"],
    "tc": ["--p", "3", "--n", "3", "--k", "1"],
    "ktheory": ["--p", "3", "--n", "4", "--k", "1"],
}


@pytest.mark.parametrize("mode", ["oracle", "closed", "both"])
@pytest.mark.parametrize("command", sorted(TABLE_ARGS))
def test_inverted_window_exits_two_in_every_mode(capsys, monkeypatch, command, mode):
    import synlab.cli as climod

    def no_work(*args, **kwargs):
        raise AssertionError("a command started on an empty window")

    for name in ("_cmd_einf", "_cmd_tr", "_cmd_assembly"):
        monkeypatch.setattr(climod, name, no_work)
    code, out, err = run(capsys, command, *TABLE_ARGS[command], "--mode", mode, "--deg-min", "10", "--deg-max", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: empty window (10, 0)")


@pytest.mark.parametrize("mode", ["oracle", "closed", "both"])
def test_tr_negative_truncation_exits_two_in_every_mode(capsys, mode):
    code, out, err = run(capsys, "tr", "--p", "3", "--ell", "1", "--m", "-1", "--deg-max", "20", "--mode", mode)
    assert code == 2 and out == ""
    assert err.startswith("error: truncation level must be >= 0")


EINF_CUTOFF_ARGS = ["einf", "--p", "3", "--n", "1", "--ell", "1", "--deg-max", "30", "--format", "csv"]


@pytest.mark.parametrize("cutoff", ["1", "3"])
def test_einf_modes_print_the_same_table_below_a_v1_cutoff(capsys, cutoff):
    tables = []
    for mode in ("oracle", "closed", "both"):
        code, out, err = run(capsys, *EINF_CUTOFF_ARGS, "--v1-cutoff", cutoff, "--mode", mode)
        assert code == 0, err
        tables.append(out)
    assert tables[0] == tables[1] == tables[2]
    # the cutoff drops the v1-translates at heights >= cutoff
    code, default, _ = run(capsys, *EINF_CUTOFF_ARGS)
    total = lambda csv: sum(int(row.split(",")[3]) for row in csv.splitlines()[1:])
    assert code == 0 and total(tables[0]) < total(default)


@pytest.mark.parametrize("mode", ["oracle", "closed", "both"])
@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_einf_cutoff_below_one_exits_two_in_every_mode(capsys, monkeypatch, cutoff, mode):
    import synlab.cli as climod

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a v1 cutoff below 1")

    for name in ("einf_closed_counted", "SSPage"):
        monkeypatch.setattr(climod, name, no_work)
    code, out, err = run(capsys, *EINF_CUTOFF_ARGS, "--v1-cutoff", cutoff, "--mode", mode)
    assert code == 2 and out == ""
    assert err.startswith("error: v1 cutoff must be >= 1")


@pytest.mark.parametrize("mode", ["oracle", "closed", "both"])
@pytest.mark.parametrize("command", sorted(TABLE_ARGS))
def test_window_guard_exits_two_in_every_mode(capsys, monkeypatch, command, mode):
    import synlab.cli as climod

    def no_work(*args, **kwargs):
        raise AssertionError("a command started on a window past the table guard")

    for name in ("_cmd_einf", "_cmd_tr", "_cmd_assembly"):
        monkeypatch.setattr(climod, name, no_work)
    top = str(climod.MAX_TABLE_STEMS - 2)  # one stem too many from -2
    code, out, err = run(capsys, command, *TABLE_ARGS[command], "--mode", mode, "--deg-max", top)
    assert code == 2 and out == ""
    assert err.startswith(f"error: window (-2, {top}) spans more than {climod.MAX_TABLE_STEMS} stems")
    monkeypatch.setattr(climod, "MAX_TABLE_STEMS", climod.MAX_TABLE_STEMS + 1)
    with pytest.raises(AssertionError, match="past the table guard"):
        main([command, *TABLE_ARGS[command], "--mode", mode, "--deg-max", top])


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--ell", "0", "--deg-max", "100000000"],
    ["--n", "1", "--ell", "1", "--deg-max", "10", "--v1-cutoff", "100000000"],
])
def test_closed_einf_guards_exit_two_before_any_generator(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a tally started before the size guard")

    monkeypatch.setattr(closedforms, "Counter", refuse)
    code, out, err = run(capsys, "einf", "--p", "3", *argv, "--mode", "closed")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_einf_both_mode_names_the_first_difference(capsys, monkeypatch):
    einf_closed = closedforms.einf_closed

    def drop_first(*args):
        gens = einf_closed(*args)
        return gens - Counter([next(iter(gens))])

    monkeypatch.setattr(closedforms, "einf_closed", drop_first)
    code, out, err = run(capsys, "einf", "--p", "3", "--n", "1", "--ell", "1", "--deg-min", "-4", "--deg-max", "16")
    assert code == 3 and out == ""
    assert err == "verification failure: einf oracle and closed form disagree at ((2, 0), 1, 0)\n"
