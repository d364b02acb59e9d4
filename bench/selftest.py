"""Self-test of the benchmark's generator and answer checks.

Usage: python3 bench/selftest.py

Checks that the same seeds give byte-identical Packages files (and another
archive or stanza order seed different ones), that the migrate answer check accepts satmigrate's
real answer and rejects a wrong optimum and inadmissible T' sets, and that
the explain check rejects an explanation that misses the planted cause.
Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from layout import use_source_tree

import checks
import gen
import run


def expect(condition: bool, message: str):
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def report_text(archive: gen.Archive, model, t_prime, optimum: int) -> str:
    """A migrate report in satmigrate's text layout for a chosen T'."""
    testing = set(model.testing)

    def names(pids):
        return " ".join(checks.pkg_text(archive, p) for p in sorted(pids)) or "(none)"

    return "\n".join([
        "encoding: p5-pruned", "delta: 0", f"optimum: {optimum}",
        f"migrated-in: {names(set(t_prime) - testing)}",
        f"removed: {names(testing - set(t_prime))}",
        f"t-prime: {names(t_prime)}", "verified: yes"]) + "\n"


def check_determinism():
    for tag, size in (("migrate-batch", 60), ("explain-blocked", 100),
                      ("archive-scale", 300)):
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for name, seed, order in (("first", 7, 1), ("again", 7, 1),
                                      ("reordered", 7, 2), ("other", 8, 1)):
                directory = Path(tmp) / name
                directory.mkdir()
                paths = gen.write_pair(gen.generate(tag, seed, size), directory, order)
                files[name] = [Path(p).read_bytes() for p in paths]
        expect(files["first"] == files["again"],
               f"{tag}: the same seeds gave different Packages bytes")
        for name in ("reordered", "other"):
            expect(all(a != b for a, b in zip(files["first"], files[name])),
                   f"{tag}: {name} gave the same Packages bytes")


def check_migrate_checks():
    from satmigrate import cli

    index, names = run.CATALOG[1]
    archive = run.catalog_archive(index, names)
    model = archive.model()
    reference = checks.max_objective(model)
    with tempfile.TemporaryDirectory() as tmp:
        testing, unstable = gen.write_pair(archive, Path(tmp), 0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["migrate", "--testing", testing, "--unstable", unstable])
    text = out.getvalue()
    optimum = int(checks._report_fields(text)["optimum"])
    expect(checks.check_migrate(code, text, archive, model, optimum) == "",
           "the check rejects satmigrate's own answer")
    expect(checks.check_migrate(code, text, archive, model, optimum + 1) != "",
           "the check accepts an answer that misses the reference optimum")
    wrong = text.replace(f"optimum: {optimum}\n", f"optimum: {optimum + 1}\n")
    expect(checks.check_migrate(code, wrong, archive, model, None) != "",
           "the check accepts an optimum that T' does not reach")

    t_prime = set(model.testing)
    base = sorted(p for p in t_prime if any(g == {p} for q in t_prime
                                            for g in model.deps[q]))[0]
    untrimmed = t_prime - {base}
    expect(not model.admissible(untrimmed)[0], "the fixture should be untrimmed")
    text = report_text(archive, model, untrimmed, reference(untrimmed))
    expect("not admissible" in checks.check_migrate(0, text, archive, model, None),
           "the check accepts a T' with an uninstallable package")

    update = next(p for p in model.unstable if p[1] == 2 and (p[0], 1) in t_prime)
    twice = t_prime | {update}
    text = report_text(archive, model, twice, reference(twice))
    expect("occurs twice" in checks.check_migrate(0, text, archive, model, None),
           "the check accepts a T' with two versions of one name")

    broken = archive.broken[0]
    with_broken = t_prime - {(broken[0], 1)} | {broken}
    text = report_text(archive, model, with_broken, reference(with_broken))
    expect("planted broken" in checks.check_migrate(0, text, archive, model, None),
           "the check accepts a migrated planted broken update")


def check_explain_checks():
    archive = gen.generate("explain-blocked", 1, 100, broken=3, blocked=6)
    candidate = sorted(archive.blocked)[0]
    head = f"{checks.pkg_text(archive, candidate)} cannot migrate; minimal blocking facts:"
    cause = checks.pkg_text(archive, archive.blocked[candidate])
    good = f"{head}\n  - {checks.pkg_text(archive, candidate)} requires one of [{cause}]\n"
    expect(checks.check_explain_blocked(0, good, archive, candidate) == "",
           "the explain check rejects a correct explanation")
    bad = f"{head}\n  - the migration of {checks.pkg_text(archive, candidate)} was requested\n"
    expect(checks.check_explain_blocked(0, bad, archive, candidate) != "",
           "the explain check accepts an explanation without the planted cause")


def main() -> int:
    use_source_tree()
    check_determinism()
    check_migrate_checks()
    check_explain_checks()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
