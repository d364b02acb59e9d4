from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from satmigrate.cli import (DEFAULT_TIMEOUT, EXIT_ERROR, EXIT_OK, EXIT_TIMEOUT,
                            EXIT_UNSOLVABLE, EXIT_VIOLATIONS, main)
from satmigrate.repo import Package, PolicyRules

from .generators import forbid_closures
from .oracle import parse_dimacs

UPGRADE_TESTING = "Package: a\nVersion: 1\n\n"
UPGRADE_UNSTABLE = "Package: a\nVersion: 2\n\n"


@pytest.fixture
def repos(tmp_path):
    def write(testing: str, unstable: str) -> list[str]:
        t = tmp_path / "testing"
        u = tmp_path / "unstable"
        t.write_text(testing)
        u.write_text(unstable)
        return ["--testing", str(t), "--unstable", str(u)]
    return write


def test_migrate_upgrade_fixture(repos, capsys):
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "--mode", "max"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "delta: 2" in out
    assert "easy a/2" in out


def test_migrate_identical_repositories(repos, capsys):
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_TESTING)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "delta: 0" in out
    assert out.rstrip().endswith("hints:")  # no hint lines follow


def test_migrate_malformed_input(repos, capsys):
    code = main(["migrate", *repos("Package: a\n", UPGRADE_UNSTABLE)])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_migrate_rejects_an_empty_package_name(repos, capsys):
    code = main(["migrate", *repos("Package: \nVersion: 1\n\n",
                                   UPGRADE_UNSTABLE)])
    assert code == EXIT_ERROR
    assert "cannot parse line 'Package: '" in capsys.readouterr().err


def test_migrate_unsolvable_policy(repos, tmp_path, capsys):
    testing = "Package: a\nVersion: 1\n\n"
    unstable = ("Package: a\nVersion: 2\n\n"
                "Package: broken\nVersion: 1\nDepends: nosuch\n\n")
    policy = tmp_path / "rules"
    policy.write_text("clause: +broken/1\n")
    code = main(["migrate", *repos(testing, unstable),
                 "--policy", str(policy)])
    assert code == EXIT_UNSOLVABLE


def test_migrate_structured_round_trip(repos, capsys):
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    document = json.loads(out)
    assert isinstance(document, dict)
    assert document["delta"] == 2
    assert document["hints"] == "easy a/2\n"
    assert document["t_prime"] == ["a/2"]


def test_migrate_deterministic_output(repos, capsys):
    args = ["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE)]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_migrate_all_deltas(repos, capsys):
    unstable = "Package: a\nVersion: 2\n\nPackage: a\nVersion: 3\n\n"
    code = main(["migrate", *repos(UPGRADE_TESTING, unstable),
                 "--all-deltas", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "alternative 1" in out


def test_explain_migratable(repos, capsys):
    code = main(["explain", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE), "a/2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "a/2 migrates with delta 2" in out


def test_explain_blocked_package(repos, capsys):
    unstable = "Package: a\nVersion: 2\nDepends: nosuch\n\n"
    code = main(["explain", *repos(UPGRADE_TESTING, unstable), "a/2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "cannot migrate" in out
    assert "requires one of [nothing]" in out


# A blocked update whose core (6 facts) lies among 52 hard clauses: mutt/2.2
# needs both postfix and, through exim-base, exim, and the two conflict
# through the mail-transport-agent they both provide.
GOLDEN_TESTING = (
    "Package: libc6\nVersion: 2.31\n\n"
    "Package: libssl\nVersion: 1.1\nDepends: libc6\n\n"
    "Package: zlib\nVersion: 1.2\nDepends: libc6\n\n"
    "Package: curl\nVersion: 7.68\nDepends: libc6, libssl, zlib\n\n"
    "Package: git\nVersion: 2.25\nDepends: libc6, curl, zlib | busybox\n\n"
    "Package: busybox\nVersion: 1.30\nDepends: libc6\n\n"
    "Package: exim\nVersion: 4.93\nDepends: libc6\n"
    "Provides: mail-transport-agent\nConflicts: mail-transport-agent\n\n"
    "Package: mutt\nVersion: 1.13\n"
    "Depends: libc6, libssl, exim | mail-transport-agent\n\n")

GOLDEN_UNSTABLE = (
    "Package: libc6\nVersion: 2.36\n\n"
    "Package: libssl\nVersion: 3.0\nDepends: libc6 (>= 2.36)\n\n"
    "Package: libpcre\nVersion: 10.42\nDepends: libc6\n\n"
    "Package: curl\nVersion: 7.88\n"
    "Depends: libc6 (>= 2.36), libssl (>= 3.0), zlib\n\n"
    "Package: mutt\nVersion: 2.2\n"
    "Depends: libc6 (>= 2.36), libssl (>= 3.0), postfix, exim-base\n\n"
    "Package: exim-base\nVersion: 4.96\nDepends: exim\n\n"
    "Package: postfix\nVersion: 3.7\nDepends: libc6 (>= 2.36), libpcre\n"
    "Provides: mail-transport-agent\nConflicts: mail-transport-agent\n\n"
    "Package: git\nVersion: 2.39\n"
    "Depends: libc6 (>= 2.36), curl (>= 7.88), perl-base (>= 5.36)\n\n")

GOLDEN_FACTS = [
    "mutt/2.2 needs an installation containing itself",
    "exim-base/4.96 requires one of [exim/4.93] "
    "in the installation for mutt/2.2",
    "mutt/2.2 requires one of [exim-base/4.96] "
    "in the installation for mutt/2.2",
    "mutt/2.2 requires one of [postfix/3.7] in the installation for mutt/2.2",
    "exim/4.93 conflicts with postfix/3.7 (installation for mutt/2.2)",
    "the migration of mutt/2.2 was requested",
]


def test_explain_golden_text(repos, capsys):
    code = main(["explain", *repos(GOLDEN_TESTING, GOLDEN_UNSTABLE),
                 "mutt/2.2"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "mutt/2.2 cannot migrate; minimal blocking facts:\n"
        + "".join(f"  - {fact}\n" for fact in GOLDEN_FACTS))


def test_explain_golden_structured(repos, capsys):
    code = main(["explain", *repos(GOLDEN_TESTING, GOLDEN_UNSTABLE),
                 "mutt/2.2", "--format", "structured"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == json.dumps(
        {"explanation": GOLDEN_FACTS, "migrates": False,
         "package": "mutt/2.2"}, indent=2) + "\n"


def test_explain_typo_suggests_names(repos, capsys):
    code = main(["explain", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "aa/2"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "did you mean" in err and "a" in err


def test_check_clean(repos, capsys):
    code = main(["check", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE)])
    assert code == EXIT_OK
    assert "trimmed and unique" in capsys.readouterr().out


def test_check_reports_uninstallable_with_explanation(repos, capsys):
    testing = "Package: a\nVersion: 1\nDepends: nosuch\n\n"
    code = main(["check", *repos(testing, UPGRADE_UNSTABLE)])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATIONS
    assert "trimmedness" in out
    assert "a/1 requires one of [nothing]" in out


def test_check_drops_an_architecture_qualifier(repos, capsys):
    # "b:any" relates to b, so a/1 is installable in testing
    pair = "Package: a\nVersion: 1\nDepends: b:any (>= 1)\n\n" \
        "Package: b\nVersion: 1\n\n"
    code = main(["check", *repos(pair, pair)])
    assert code == EXIT_OK
    assert "trimmed and unique" in capsys.readouterr().out


def test_check_reports_duplicates(repos, capsys):
    testing = "Package: a\nVersion: 1\n\nPackage: a\nVersion: 2\n\n"
    code = main(["check", *repos(testing, "")])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATIONS
    assert "uniqueness" in out


def test_check_structured(repos, capsys):
    testing = "Package: a\nVersion: 1\nDepends: nosuch\n\n"
    code = main(["check", *repos(testing, ""), "--format", "structured"])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_VIOLATIONS
    assert not document["clean"]
    assert document["violations"][0]["kind"] == "trimmedness"


# Three trimmedness violations among irrelevant healthy packages: git/2.25
# needs the missing perl-base, and mutt/1.13 (and with it mailx/8.1) needs
# both exim and postfix, which conflict through mail-transport-agent. The
# cores have 2, 5 and 4 clauses.
GOLDEN_CHECK_TESTING = (
    "Package: libc6\nVersion: 2.31\n\n"
    "Package: libssl\nVersion: 1.1\nDepends: libc6\n\n"
    "Package: zlib\nVersion: 1.2\nDepends: libc6\n\n"
    "Package: curl\nVersion: 7.68\nDepends: libc6, libssl, zlib\n\n"
    "Package: exim\nVersion: 4.93\nDepends: libc6\n"
    "Provides: mail-transport-agent\nConflicts: mail-transport-agent\n\n"
    "Package: postfix\nVersion: 3.4\nDepends: libc6, libssl\n"
    "Provides: mail-transport-agent\nConflicts: mail-transport-agent\n\n"
    "Package: mutt\nVersion: 1.13\n"
    "Depends: libc6, libssl, exim, postfix | busybox\n\n"
    "Package: mailx\nVersion: 8.1\nDepends: libc6, mutt | nail\n\n"
    "Package: git\nVersion: 2.25\n"
    "Depends: libc6, curl, zlib | busybox, perl-base\n\n")

GOLDEN_CHECK_VIOLATIONS = [
    ("git/2.25", [
        "git/2.25 must be part of the installation",
        "git/2.25 requires one of [nothing]"]),
    ("mailx/8.1", [
        "mailx/8.1 must be part of the installation",
        "mailx/8.1 requires one of [mutt/1.13]",
        "mutt/1.13 requires one of [exim/4.93]",
        "mutt/1.13 requires one of [postfix/3.4]",
        "exim/4.93 conflicts with postfix/3.4"]),
    ("mutt/1.13", [
        "mutt/1.13 must be part of the installation",
        "mutt/1.13 requires one of [exim/4.93]",
        "mutt/1.13 requires one of [postfix/3.4]",
        "exim/4.93 conflicts with postfix/3.4"]),
]


def test_check_golden_text(repos, capsys):
    code = main(["check", *repos(GOLDEN_CHECK_TESTING, UPGRADE_UNSTABLE)])
    assert code == EXIT_VIOLATIONS
    assert capsys.readouterr().out == "".join(
        f"trimmedness: {pkg} is not installable in testing\n"
        + "".join(f"  - {fact}\n" for fact in facts)
        for pkg, facts in GOLDEN_CHECK_VIOLATIONS)


def test_check_golden_structured(repos, capsys):
    code = main(["check", *repos(GOLDEN_CHECK_TESTING, UPGRADE_UNSTABLE),
                 "--format", "structured"])
    assert code == EXIT_VIOLATIONS
    assert capsys.readouterr().out == json.dumps(
        {"clean": False,
         "violations": [{"detail": f"{pkg} is not installable in testing",
                         "explanation": facts, "kind": "trimmedness",
                         "packages": [pkg]}
                        for pkg, facts in GOLDEN_CHECK_VIOLATIONS]},
        indent=2) + "\n"


def test_check_and_migrate_read_no_closure(repos, capsys, monkeypatch):
    # check's pass and its explanations, and migrate's rounds and their
    # checks, read the raw tables alone: each prints what it prints when
    # the index's closures and closure_ends can be read
    common = repos(GOLDEN_CHECK_TESTING, GOLDEN_CHECK_TESTING.replace(
        "Version: 2.25\n", "Version: 2.26\n").replace(", perl-base", ""))
    runs = []
    for forbid in (False, True):
        if forbid:
            forbid_closures(monkeypatch)
        for command in ("check", "migrate"):
            code = main([command, *common])
            runs.append((forbid, command, code, *capsys.readouterr()))
    assert [run[1:] for run in runs[:2]] == [run[1:] for run in runs[2:]]
    assert runs[0][2:4] == (EXIT_VIOLATIONS, "".join(
        f"trimmedness: {pkg} is not installable in testing\n"
        + "".join(f"  - {fact}\n" for fact in facts)
        for pkg, facts in GOLDEN_CHECK_VIOLATIONS))
    assert runs[1][2] == EXIT_OK and "verified: yes" in runs[1][3]


def test_only_the_encoder_and_stats_build_a_closure_index(
        repos, capsys, monkeypatch, tmp_path):
    # check verifies on the universe alone, explanations included; migrate,
    # emit and stats each build one index of the whole archive
    from satmigrate.closure import ClosureIndex

    out = str(tmp_path / "out.wcnf")
    built = _count_calls(monkeypatch, ClosureIndex, "__init__")
    for testing, command, extra, code, indexes in (
            (GOLDEN_TESTING, "check", [], EXIT_OK, 0),
            (GOLDEN_CHECK_TESTING, "check", [], EXIT_VIOLATIONS, 0),
            (GOLDEN_TESTING, "migrate", [], EXIT_OK, 1),
            (GOLDEN_TESTING, "emit", [out], EXIT_OK, 1),
            (GOLDEN_TESTING, "stats", [], EXIT_OK, 1)):
        argv = [command, *repos(testing, GOLDEN_UNSTABLE), *extra]
        built.clear()
        assert main(argv) == code, argv
        capsys.readouterr()
        assert [len(universe.order) for _, universe in built] == \
            [16] * indexes, argv


def test_stats_conflict_free_has_p1_row(repos, capsys):
    testing = "Package: a\nVersion: 1\nDepends: b\n\nPackage: b\nVersion: 1\n\n"
    code = main(["stats", *repos(testing, ""), "--format", "structured"])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    names = [row["encoding"] for row in document["encodings"]]
    assert names == ["p1", "p3", "p4", "p5-strict", "p5-pruned"]
    by_name = {row["encoding"]: row for row in document["encodings"]}
    # conflict-free: pruned p5 carries no installation atoms at all
    assert by_name["p5-pruned"]["inst_atoms"] == 0
    assert document["easy"] == 2


def test_stats_with_conflict_p5_below_p3(repos, capsys):
    testing = ("Package: a\nVersion: 1\nDepends: b, c\n\n"
               "Package: b\nVersion: 1\nConflicts: c\n\n"
               "Package: c\nVersion: 1\n\n")
    code = main(["stats", *repos(testing, ""), "--format", "structured"])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    by_name = {row["encoding"]: row for row in document["encodings"]}
    assert "p1" not in by_name
    assert by_name["p5-pruned"]["atoms"] < by_name["p3"]["atoms"]


def test_stats_empty_input(repos, capsys):
    code = main(["stats", *repos("", ""), "--format", "structured"])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert document["packages"] == 0


def test_emit_wcnf_round_trip(repos, tmp_path, capsys):
    out_path = tmp_path / "instance.wcnf"
    code = main(["emit", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 str(out_path)])
    assert code == EXIT_OK
    kind, num_vars, hard, soft = parse_dimacs(out_path.read_bytes())
    assert kind == "wcnf"
    assert num_vars == 2
    assert len(soft) == 2
    assert (tmp_path / "instance.wcnf.map").read_text() == \
        "1 pkg a/1\n2 pkg a/2\n"


def test_emit_cnf_with_soft_objective_fails(repos, tmp_path, capsys):
    out_path = tmp_path / "instance.cnf"
    code = main(["emit", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 str(out_path), "--kind", "cnf"])
    assert code == EXIT_ERROR
    assert "soft" in capsys.readouterr().err


def test_emit_empty_universe_header_only(repos, tmp_path, capsys):
    out_path = tmp_path / "empty.wcnf"
    code = main(["emit", *repos("", ""), str(out_path)])
    assert code == EXIT_OK
    assert out_path.read_bytes() == b"p wcnf 0 0 1\n"
    assert (tmp_path / "empty.wcnf.map").read_text() == ""


def test_every_subcommand_structured_output_parses(repos, tmp_path, capsys):
    common = repos(UPGRADE_TESTING, UPGRADE_UNSTABLE)
    out_path = tmp_path / "x.wcnf"
    for argv in (["migrate", *common],
                 ["explain", *common, "a/2"],
                 ["check", *common],
                 ["stats", *common],
                 ["emit", *common, str(out_path)]):
        code = main(argv + ["--format", "structured"])
        out = capsys.readouterr().out
        assert code == EXIT_OK, argv
        assert isinstance(json.loads(out), dict)


def test_policy_file_parsing():
    rules = PolicyRules.parse("# comment\n\ngroup: +a/1 -b/2\nclause: c/3\n")
    assert rules.groups == [[(1, Package("a", "1")), (-1, Package("b", "2"))]]
    assert rules.extra_clauses == [[(1, Package("c", "3"))]]
    with pytest.raises(ValueError):
        PolicyRules.parse("bogus line\n")
    with pytest.raises(ValueError):
        PolicyRules.parse("group:\n")
    # a bad literal names its line, as a bad line does
    with pytest.raises(ValueError, match="^policy line 2: package spec must"
                       " be name/version, got 'nonsense'$"):
        PolicyRules.parse("clause: a/1\ngroup: +a/1 nonsense\n")


def test_timeout_exit_code(repos, capsys, monkeypatch):
    import satmigrate.engine as engine_mod

    def fake_solve(req, u):
        raise engine_mod.SolveTimedOut("budget exhausted")

    monkeypatch.setattr(engine_mod, "solve_migration", fake_solve)
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE)])
    assert code == EXIT_TIMEOUT
    assert "timeout" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_timeout_must_be_positive(repos, capsys, tmp_path, value):
    for command in (["migrate"], ["explain", "a/2"], ["check"], ["stats"],
                    ["emit", str(tmp_path / "out.wcnf")]):
        code = main([*command, *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                     "--timeout", value])
        assert code == EXIT_ERROR, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --timeout must be positive"), \
            command
    assert not (tmp_path / "out.wcnf").exists()
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "--timeout", "inf"])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["migrate", "--bogus"],
    ["migrate", "--testing", "t"],  # no --unstable
    ["migrate", "--testing", "t", "--unstable", "u", "--timeout", "abc"],
    ["emit", "--testing", "t", "--unstable", "u"],  # no output path
    [],
])
def test_argparse_usage_errors_exit_1(capsys, argv):
    # argparse's own exit code 2 would read as "unsolvable"
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["migrate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_external_solver_with_infinite_timeout(repos, capsys, tmp_path):
    # "inf" sets no limit on the solver's process either, nor does a finite
    # budget beyond the longest wait subprocess.run can poll for
    script = tmp_path / "solver.py"
    script.write_text(f"#!{sys.executable}\nprint('s UNSATISFIABLE')\n")
    script.chmod(0o755)
    for timeout in ("inf", "2.2e6", "1e10"):
        code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                     "--solver", shlex.quote(str(script)),
                     "--timeout", timeout])
        assert code == EXIT_UNSOLVABLE, timeout
        assert capsys.readouterr().err.startswith("unsolvable:")


def test_explain_reports_repo_error(repos, capsys, monkeypatch):
    import satmigrate.engine as engine_mod
    import satmigrate.repo as repo_mod

    def fake_solve(req, u):
        raise repo_mod.RepoError("installability query timed out")

    monkeypatch.setattr(engine_mod, "solve_migration", fake_solve)
    code = main(["explain", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE), "a/2"])
    assert code == EXIT_ERROR
    assert "error: installability query timed out" in capsys.readouterr().err


@pytest.mark.parametrize("values,message", [
    ("-1 x 0", "bad value line 'v -1 x 0'"),
    ("-1 5 0", "'5' names no variable in 1..2"),
])
def test_migrate_rejects_a_bad_external_value_line(repos, capsys, tmp_path,
                                                   values, message):
    # the upgrade fixture has two atoms, a/1 and a/2
    script = tmp_path / "solver.py"
    script.write_text(f"#!{sys.executable}\nprint('s OPTIMUM FOUND')\n"
                      f"print('v {values}')\n")
    script.chmod(0o755)
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "--mode", "max", "--solver", shlex.quote(str(script))])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad value line")
    assert message in captured.err


def test_check_reports_core_extraction_error(repos, capsys, monkeypatch):
    import satmigrate.satcore as satcore_mod

    def fake_mus(hard, num_vars=None, deadline=None):
        raise satcore_mod.SatCoreError("timeout during core minimization")

    monkeypatch.setattr(satcore_mod, "extract_mus", fake_mus)
    broken = "Package: a\nVersion: 1\nDepends: nosuch\n\n"
    code = main(["check", *repos(broken, broken)])
    assert code == EXIT_ERROR
    assert "error: timeout during core minimization" in capsys.readouterr().err


def _raise_mus_timeout(hard, num_vars=None, deadline=None):
    import satmigrate.satcore as satcore_mod
    raise satcore_mod.SolveTimedOut("timeout during core minimization")


def test_check_core_extraction_timeout_exit_code(repos, capsys, monkeypatch):
    import satmigrate.satcore as satcore_mod

    monkeypatch.setattr(satcore_mod, "extract_mus", _raise_mus_timeout)
    broken = "Package: a\nVersion: 1\nDepends: nosuch\n\n"
    code = main(["check", *repos(broken, broken)])
    assert code == EXIT_TIMEOUT
    assert "timeout: timeout during core minimization" in capsys.readouterr().err


def test_explain_core_extraction_timeout_exit_code(repos, capsys, monkeypatch):
    import satmigrate.satcore as satcore_mod

    monkeypatch.setattr(satcore_mod, "extract_mus", _raise_mus_timeout)
    unstable = "Package: a\nVersion: 2\nDepends: nosuch\n\n"
    code = main(["explain", *repos(UPGRADE_TESTING, unstable), "a/2"])
    assert code == EXIT_TIMEOUT
    assert "timeout: timeout during core minimization" in capsys.readouterr().err


def test_check_passes_timeout_to_core_extraction(repos, capsys, monkeypatch):
    import satmigrate.satcore as satcore_mod

    # the core's deadline is the command's: --timeout seconds, or the
    # default, from main's start
    deadlines = []
    original = satcore_mod.extract_mus

    def recording(hard, num_vars=None, deadline=None):
        deadlines.append(deadline)
        return original(hard, num_vars=num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "extract_mus", recording)
    broken = "Package: a\nVersion: 1\nDepends: nosuch\n\n"
    for flag, seconds in ((["--timeout", "7.5"], 7.5), ([], DEFAULT_TIMEOUT)):
        deadlines.clear()
        before = time.monotonic()
        assert main(["check", *repos(broken, ""), *flag]) == EXIT_VIOLATIONS
        after = time.monotonic()
        assert len(deadlines) == 1, flag
        assert before + seconds <= deadlines[0] <= after + seconds, flag


def test_blocked_explain_decides_and_explains_by_one_deadline(
        repos, capsys, monkeypatch):
    # a/2 is decided on its closure, then explained; both searches read
    # the command's one deadline
    import satmigrate.satcore as satcore_mod

    searches = []
    solve, extract = satcore_mod.solve_pmaxsat, satcore_mod.extract_mus

    def solving(hard, soft, num_vars, deadline):
        searches.append(("decision", deadline))
        return solve(hard, soft, num_vars=num_vars, deadline=deadline)

    def extracting(hard, num_vars, deadline):
        searches.append(("core", deadline))
        return extract(hard, num_vars=num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "solve_pmaxsat", solving)
    monkeypatch.setattr(satcore_mod, "extract_mus", extracting)
    unstable = "Package: a\nVersion: 2\nDepends: nosuch\n\n"
    before = time.monotonic()
    code = main(["explain", *repos(UPGRADE_TESTING, unstable), "a/2",
                 "--timeout", "7.5"])
    after = time.monotonic()
    assert code == EXIT_OK
    assert "a/2 cannot migrate" in capsys.readouterr().out
    assert [kind for kind, _ in searches] == ["decision", "core"]
    (_, decided), (_, cored) = searches
    assert decided == cored
    assert before + 7.5 <= decided <= after + 7.5


def test_cli_import_leaves_numpy_unloaded():
    # the runtime stands alone: with numpy made unimportable, every module
    # of the package imports, and no oracle module is left among them
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import importlib, importlib.util, pkgutil, sys, satmigrate.cli\n"
             "print('numpy' in sys.modules)\n"
             "sys.modules['numpy'] = None\n"
             "for m in pkgutil.walk_packages(satmigrate.__path__, 'satmigrate.'):\n"
             "    importlib.import_module(m.name)\n"
             "    print(m.name)\n"
             "print(importlib.util.find_spec('satmigrate.oracle') is None)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    numpy_loaded, *modules, oracle_absent = out.split()
    assert numpy_loaded == "False"
    assert "satmigrate.cli" in modules and "satmigrate.satcore" in modules
    assert oracle_absent == "True"


def test_cli_import_loads_no_path_only_module():
    # start-up imports what every command uses; each of these serves one
    # path alone and is imported there
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import satmigrate.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(out.split())
    assert "satmigrate.cli" in loaded
    assert loaded.isdisjoint({"statistics", "difflib", "shlex", "subprocess",
                              "json"}), sorted(loaded)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _runs_building_once(repos, capsys, calls):
    common = repos(GOLDEN_TESTING, GOLDEN_UNSTABLE)
    for argv, expected in ((["explain", *common, "mutt/2.2"], "cannot migrate"),
                           (["migrate", *common], "verified: yes"),
                           (["migrate", *common, "--all-deltas", "2"],
                            "verified: yes")):
        calls.clear()
        assert main(argv) == EXIT_OK, argv
        assert expected in capsys.readouterr().out
        assert len(calls) == 1, argv


def test_explain_builds_the_closure_index_once(repos, capsys, monkeypatch):
    # one closure index serves each run, alternatives included
    from satmigrate.closure import ClosureIndex

    built = _count_calls(monkeypatch, ClosureIndex, "__init__")
    _runs_building_once(repos, capsys, built)


def test_explain_builds_the_encoding_once(repos, capsys, monkeypatch):
    # a blocked update's core is taken from the encoding of its closure,
    # the one that decided it
    from satmigrate import encoder

    built = _count_calls(monkeypatch, encoder, "build_encoding")
    _runs_building_once(repos, capsys, built)


def test_main_builds_its_parser_once_per_process(repos, capsys,
                                                 monkeypatch):
    common = repos(GOLDEN_TESTING, GOLDEN_UNSTABLE)
    assert main(["check", *common]) == EXIT_OK
    built = _count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    for argv in (["migrate", *common], ["explain", *common, "mutt/2.2"],
                 ["stats", *common]):
        assert main(argv) == EXIT_OK
    assert built == []


def test_repeated_main_calls_match_fresh_processes(repos, capsys, tmp_path):
    # one process shares one parser across calls; each call must still
    # answer as the command does in a process of its own
    common = repos(GOLDEN_TESTING, GOLDEN_UNSTABLE)
    out = str(tmp_path / "out.wcnf")
    sequence = [
        (["migrate", "--bogus"], EXIT_ERROR),
        (["migrate", *common, "--all-deltas", "2", "--format", "structured"],
         EXIT_OK),
        (["migrate", *common], EXIT_OK),
        (["emit", *common, "--mode", "target", "--target", "libpcre/10.42",
          out], EXIT_OK),
        (["emit", *common, out], EXIT_OK),
        (["check", *common, "--timeout", "7.5"], EXIT_OK),
        (["check", *common], EXIT_OK),
        (["explain", *common, "mutt/2.2"], EXIT_OK),
        (["stats", *common], EXIT_OK),
    ]
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    for argv, expected in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = (Path(out), Path(out + ".map")) if argv[0] == "emit" else ()
        written = [path.read_bytes() for path in files]
        fresh = subprocess.run([sys.executable, "-m", "satmigrate.cli", *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == expected, argv
        assert [path.read_bytes() for path in files] == written, argv


def test_blocked_explain_indexes_only_the_closure(repos, capsys, monkeypatch):
    # closure(mutt/2.2): itself, libc6/2.31 and 2.36, libssl/3.0,
    # postfix/3.7, libpcre/10.42, exim-base/4.96 and exim/4.93, of the 16
    # packages of the golden fixture
    from satmigrate.closure import ClosureIndex

    built = _count_calls(monkeypatch, ClosureIndex, "__init__")
    assert main(["explain", *repos(GOLDEN_TESTING, GOLDEN_UNSTABLE),
                 "mutt/2.2"]) == EXIT_OK
    assert "cannot migrate" in capsys.readouterr().out
    assert [len(universe.order) for _, universe in built] == [8]


# a/2 is blocked, and b/1 and c/1 conflict outside its closure
CONFLICT_ASIDE_TESTING = (UPGRADE_TESTING + "Package: b\nVersion: 1\n"
                          "Conflicts: c\n\nPackage: c\nVersion: 1\n\n")
CONFLICT_ASIDE_UNSTABLE = "Package: a\nVersion: 2\nDepends: nosuch\n\n"


@pytest.mark.parametrize("testing,unstable,package,encoding,message", [
    (GOLDEN_TESTING, GOLDEN_UNSTABLE, "mutt/2.2", "p1",
     "p1 requires a conflict-free universe"),
    (GOLDEN_TESTING, GOLDEN_UNSTABLE, "mutt/2.2", "p2-oracle",
     "16 packages exceed the p2 bound 10"),
    (CONFLICT_ASIDE_TESTING, CONFLICT_ASIDE_UNSTABLE, "a/2", "p1",
     "p1 requires a conflict-free universe"),
], ids=["golden-p1", "golden-p2", "conflict-aside-p1"])
def test_explain_refusals_read_the_whole_universe(
        repos, capsys, testing, unstable, package, encoding, message):
    # the closure of the blocked package is within p2's bound (8 of the
    # golden fixture's 16 packages) or free of conflicts, but the whole
    # universe decides the refusal
    code = main(["explain", *repos(testing, unstable), "--encoding",
                 encoding, package])
    assert code == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


P2_REFUSAL = "16 packages exceed the p2 bound 10"
GHOST = "policy references unknown package ghost/1"


@pytest.mark.parametrize("command,policy,message", [
    (["migrate", "--encoding", "p2-oracle"], "clause: +ghost/1", P2_REFUSAL),
    (["explain", "--encoding", "p2-oracle", "mutt/2.2"], "clause: +ghost/1",
     P2_REFUSAL),
    (["emit", "--encoding", "p2-oracle", "OUT"], "group: +ghost/1",
     P2_REFUSAL),
    (["migrate", "--mode", "target", "--target", "libc6/2.31"],
     "clause: +ghost/1", GHOST),
    (["emit", "--mode", "target", "--target", "libc6/2.31", "OUT"],
     "clause: +ghost/1", GHOST),
    (["explain", "libc6/2.31"], "clause: +ghost/1", GHOST),
    (["migrate", "--encoding", "p2-oracle"], "clause: +ghost/1 nonsense",
     "policy line 1: package spec must be name/version, got 'nonsense'"),
], ids=["migrate-p2", "explain-p2", "emit-p2", "migrate-target",
        "emit-target", "explain-target", "malformed"])
def test_a_policy_is_resolved_after_the_encodings_refusals(
        repos, capsys, tmp_path, command, policy, message):
    # the encoding's refusals come first, then the policy's unknown
    # package, then the objective's refusal of a target that is no
    # candidate; a policy file that does not parse is refused before all
    (tmp_path / "policy").write_text(policy + "\n")
    argv = [str(tmp_path / "out.wcnf") if arg == "OUT" else arg
            for arg in command]
    code = main([*argv, *repos(GOLDEN_TESTING, GOLDEN_UNSTABLE),
                 "--policy", str(tmp_path / "policy")])
    assert code == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_target_mode_refuses_a_target_that_is_no_candidate(repos, capsys):
    common = repos(UPGRADE_TESTING, UPGRADE_UNSTABLE)
    for target, message in (("nosuch/1", "nosuch/1 is not in the universe"),
                            ("a/1", "a/1 is not a migration candidate")):
        code = main(["migrate", *common, "--mode", "target", "--target",
                     target])
        assert code == EXIT_ERROR, target
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_blocked_target_mode_builds_no_whole_archive_index(
        repos, capsys, monkeypatch, tmp_path):
    # mutt/2.2 is decided on its closure, 8 of the golden fixture's 16
    # packages, unless p4 or a policy sends it to the full instance
    from satmigrate.closure import ClosureIndex

    policy = tmp_path / "policy.txt"
    policy.write_text("clause: +libc6/2.36\n")
    common = [*repos(GOLDEN_TESTING, GOLDEN_UNSTABLE), "--mode", "target",
              "--target", "mutt/2.2"]
    built = _count_calls(monkeypatch, ClosureIndex, "__init__")
    for extra, encoding, whole in (([], "p5-pruned", 0),
                                   (["--encoding", "p4"], "p4", 1),
                                   (["--policy", str(policy)], "p5-pruned", 1)):
        built.clear()
        assert main(["migrate", *common, *extra]) == EXIT_UNSOLVABLE, extra
        assert capsys.readouterr() == (
            "", f"unsolvable: hard clauses of {encoding} are unsatisfiable\n")
        assert sum(len(universe.order) == 16 for _, universe in built) == \
            whole, extra


def test_target_mode_decides_the_closure_with_the_embedded_solver(
        repos, capsys, tmp_path):
    # the external solver leaves a mark and finds no model: a blocked
    # target is decided on its closure without it, and a target that
    # migrates there goes on to the external full solve
    mark = tmp_path / "called"
    script = tmp_path / "solver.py"
    script.write_text(f"#!{sys.executable}\nimport pathlib\n"
                      f"pathlib.Path({str(mark)!r}).touch()\n"
                      "print('s UNSATISFIABLE')\n")
    script.chmod(0o755)
    common = [*repos(GOLDEN_TESTING, GOLDEN_UNSTABLE), "--mode", "target",
              "--solver", shlex.quote(str(script))]
    for target, called in (("mutt/2.2", False), ("libpcre/10.42", True)):
        assert main(["migrate", *common, "--target", target]) == \
            EXIT_UNSOLVABLE, target
        assert capsys.readouterr().err.startswith("unsolvable:")
        assert mark.exists() == called, target


def test_testing_is_checked_only_for_a_solved_answer(repos, capsys,
                                                     monkeypatch):
    # a blocked explain prints no warnings, so it runs no testing check
    from satmigrate import repo

    checked = _count_calls(monkeypatch, repo, "check_testing")
    common = repos(GOLDEN_TESTING, GOLDEN_UNSTABLE)
    for argv, expected, calls in (
            (["explain", *common, "mutt/2.2"], "cannot migrate", 0),
            (["explain", *common, "libpcre/10.42"], "migrates with delta", 1),
            (["migrate", *common], "verified: yes", 1),
            (["migrate", *common, "--all-deltas", "2"], "verified: yes", 1)):
        checked.clear()
        assert main(argv) == EXIT_OK, argv
        assert expected in capsys.readouterr().out
        assert len(checked) == calls, argv


def _failure(family: str) -> Exception:
    from satmigrate import encoder, engine, satcore

    return {"unsolvable": engine.Unsolvable("no model", None),
            "timeout": satcore.SolveTimedOut("out of time"),
            "error": encoder.EncoderError("bad encoding")}[family]


@pytest.mark.parametrize("family,code",
                         [("unsolvable", EXIT_UNSOLVABLE),
                          ("timeout", EXIT_TIMEOUT), ("error", EXIT_ERROR)])
@pytest.mark.parametrize("command", ["migrate", "explain", "check", "stats",
                                     "emit"])
def test_main_maps_each_failure_family_to_its_exit_code(
        repos, capsys, monkeypatch, tmp_path, command, family, code):
    import satmigrate.repo as repo_mod

    def failing(*args, **kwargs):
        raise _failure(family)

    monkeypatch.setattr(repo_mod, "build_universe", failing)
    extra = {"explain": ["a/2"], "emit": [str(tmp_path / "out.wcnf")]}
    assert main([command, *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 *extra.get(command, [])]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{family}: {_failure(family)}\n"


def test_negative_all_deltas_is_a_usage_error(repos, capsys):
    code = main(["migrate", *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE),
                 "--all-deltas", "-2"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err == "error: --all-deltas must not be negative, got -2\n"


@pytest.mark.parametrize("command", [["migrate"], ["migrate", "--mode", "min"],
                                     ["emit"]])
def test_target_without_target_mode_is_a_usage_error(repos, capsys, tmp_path,
                                                     command):
    out_path = tmp_path / "out.wcnf"
    extra = [str(out_path)] if command[0] == "emit" else []
    code = main([*command, *repos(UPGRADE_TESTING, UPGRADE_UNSTABLE), *extra,
                 "--target", "a/2"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err == "error: --target needs --mode target\n"
    assert not out_path.exists()


# a/1 needs b or c, which conflict: the greedy installation {a/1, b/1}
# decides it without a SAT query
CONFLICTED_TESTING = ("Package: a\nVersion: 1\nDepends: b | c\n\n"
                      "Package: b\nVersion: 1\nConflicts: c\n\n"
                      "Package: c\nVersion: 1\n\n")
# a/1 needs d, then b or c; d needs e, which conflicts with b. The greedy
# walk takes d and then the lowest choice b, and finds e banned, so a/1's
# installability reaches a SAT query
DEAD_END_TESTING = ("Package: a\nVersion: 1\nDepends: d, b | c\n\n"
                    "Package: b\nVersion: 1\nConflicts: e\n\n"
                    "Package: c\nVersion: 1\n\n"
                    "Package: d\nVersion: 1\nDepends: e\n\n"
                    "Package: e\nVersion: 1\n\n")


def _timed_out_solve_sat(monkeypatch):
    """Make every satcore.solve_sat call time out; returns the list of
    calls made."""
    import satmigrate.satcore as satcore_mod
    calls = []

    def timed_out(hard, num_vars, deadline=None):
        calls.append(num_vars)
        return satcore_mod.SolveResult(satcore_mod.SolveStatus.TIMEOUT)

    monkeypatch.setattr(satcore_mod, "solve_sat", timed_out)
    return calls


@pytest.mark.parametrize("command", [["migrate"], ["explain", "a/2"],
                                     ["check"]])
def test_installability_timeout_exit_code(repos, capsys, monkeypatch,
                                          command):
    _timed_out_solve_sat(monkeypatch)
    code = main([command[0], *repos(DEAD_END_TESTING, UPGRADE_UNSTABLE),
                 *command[1:]])
    assert code == EXIT_TIMEOUT
    assert capsys.readouterr().err == \
        "timeout: installability query for a/1 timed out\n"


@pytest.mark.parametrize("command", [["migrate"],
                                     ["migrate", "--all-deltas", "2"],
                                     ["check"]])
def test_installability_queries_take_the_commands_deadline(
        repos, capsys, monkeypatch, command):
    import satmigrate.satcore as satcore_mod

    deadlines = []
    original = satcore_mod.solve_sat

    def recording(hard, num_vars, deadline):
        deadlines.append(deadline)
        return original(hard, num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "solve_sat", recording)
    before = time.monotonic()
    code = main([command[0], *repos(DEAD_END_TESTING, UPGRADE_UNSTABLE),
                 *command[1:], "--timeout", "7.5"])
    after = time.monotonic()
    assert code == EXIT_OK
    assert deadlines and len(set(deadlines)) == 1, deadlines
    assert before + 7.5 <= deadlines[0] <= after + 7.5


@pytest.mark.parametrize("command", [["migrate"], ["explain", "a/2"],
                                     ["check"]])
def test_conflicted_choice_makes_no_installability_query(
        repos, capsys, monkeypatch, command):
    calls = _timed_out_solve_sat(monkeypatch)
    code = main([command[0], *repos(CONFLICTED_TESTING, UPGRADE_UNSTABLE),
                 *command[1:]])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert calls == []
