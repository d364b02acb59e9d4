"""Answer checks for the benchmark's operations.

Each check reads the text a satmigrate command printed and judges it
against the generator's own records and the reference model of model.py,
never against satmigrate itself. A check returns "" for a correct answer
and a one-line reason otherwise.
"""

from __future__ import annotations

from pathlib import Path

from gen import Archive, version_text
from model import Model, PkgId

EXIT_OK = 0
EXIT_TIMEOUT = 3


def pkg_text(archive: Archive, pid: PkgId) -> str:
    return f"{pid[0]}/{version_text(archive.seeds.get(pid[0], 0), pid[1])}"


def _text_index(archive: Archive, model: Model) -> dict[str, PkgId]:
    return {pkg_text(archive, p): p for p in model.packages}


def _report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("optimum", "migrated-in", "removed", "t-prime"):
            fields.setdefault(key, value)
    return fields


def _package_list(value: str, index: dict[str, PkgId]) -> list[PkgId] | None:
    if value in ("(none)", "(empty)"):
        return []
    out = []
    for token in value.split():
        if token not in index:
            return None
        out.append(index[token])
    return out


def check_report(text: str, archive: Archive, model: Model, objective,
                 reference: int | None) -> tuple[str, set[PkgId]]:
    """Check a migration report: T' is admissible, migrated-in and removed
    agree with T', no planted broken update migrates, the printed optimum
    equals the objective recounted on T' and, when known, the reference.
    Returns (reason, T')."""
    fields = _report_fields(text)
    index = _text_index(archive, model)
    missing = [k for k in ("optimum", "migrated-in", "removed", "t-prime")
               if k not in fields]
    if missing:
        return f"report lacks {', '.join(missing)}", set()
    t_prime = _package_list(fields["t-prime"], index)
    migrated = _package_list(fields["migrated-in"], index)
    removed = _package_list(fields["removed"], index)
    if t_prime is None or migrated is None or removed is None:
        return "report names a package the archive does not have", set()
    repo = set(t_prime)
    testing = set(model.testing)
    if sorted(repo - testing) != sorted(migrated):
        return "migrated-in disagrees with t-prime", repo
    if sorted(testing - repo) != sorted(removed):
        return "removed disagrees with t-prime", repo
    planted = sorted(set(archive.broken) & set(migrated))
    if planted:
        return f"planted broken update {pkg_text(archive, planted[0])} migrated", repo
    ok, why = model.admissible(repo)
    if not ok:
        return f"t-prime is not admissible: {why}", repo
    try:
        optimum = int(fields["optimum"].split()[0])
    except ValueError:
        return f"unreadable optimum {fields['optimum']!r}", repo
    if optimum != objective(repo):
        return f"optimum {optimum} but t-prime satisfies {objective(repo)}", repo
    if reference is not None and optimum != reference:
        return f"optimum {optimum}, reference optimum {reference}", repo
    return "", repo


def max_objective(model: Model):
    incoming = set(model.unstable) - set(model.testing)
    outgoing = set(model.testing) - set(model.unstable)
    return lambda repo: len(incoming & repo) + len(outgoing - repo)


def min_objective(model: Model):
    incoming = set(model.unstable) - set(model.testing)
    outgoing = set(model.testing) - set(model.unstable)
    return lambda repo: len(incoming - repo) + len(outgoing & repo)


def check_migrate(code: int, text: str, archive: Archive, model: Model,
                  reference: int | None) -> str:
    if code != EXIT_OK:
        return f"exit code {code}"
    return check_report(text, archive, model, max_objective(model), reference)[0]


def check_explain_blocked(code: int, text: str, archive: Archive,
                          candidate: PkgId) -> str:
    """The explanation of a planted blocked update names the planted broken
    update it depends on."""
    if code != EXIT_OK:
        return f"exit code {code}"
    head = f"{pkg_text(archive, candidate)} cannot migrate; minimal blocking facts:"
    lines = text.splitlines()
    if not lines or lines[0] != head:
        return f"expected {head!r}"
    dependency = pkg_text(archive, archive.blocked[candidate])
    if not any(dependency in line for line in lines[1:]):
        return f"explanation does not name {dependency}"
    return ""


def check_explain_migrates(code: int, text: str, archive: Archive, model: Model,
                           candidate: PkgId, witness: set[PkgId]) -> str:
    """A candidate with a known admissible witness migrates; its reported
    T' is admissible, contains it, and is at least as good as the witness
    under the minimal-change objective."""
    if code != EXIT_OK:
        return f"exit code {code}"
    lines = text.splitlines()
    prefix = f"{pkg_text(archive, candidate)} migrates with delta "
    if not lines or not lines[0].startswith(prefix):
        return f"expected a line starting {prefix!r}"
    objective = min_objective(model)
    reason, repo = check_report(text, archive, model, objective, None)
    if reason:
        return reason
    if candidate not in repo:
        return "t-prime lacks the requested candidate"
    if objective(repo) < objective(witness):
        return "a witness migration changes fewer packages than the reported one"
    return ""


def migration_witness(model: Model, candidate: PkgId) -> set[PkgId] | None:
    """An admissible T' containing the candidate, found by replacing its
    testing version and trimming what became uninstallable; None if the
    candidate itself gets trimmed."""
    repo = {p for p in model.testing if p[0] != candidate[0]} | {candidate}
    while True:
        bad = {p for p in repo if not model.installable(p, repo)}
        if candidate in bad:
            return None
        if not bad:
            return repo
        repo -= bad


def check_check(code: int, text: str) -> str:
    """The generator guarantees testing is trimmed and unique."""
    if code != EXIT_OK:
        return f"exit code {code}"
    if text != "testing is trimmed and unique\n":
        return f"unexpected output {text[:60]!r}"
    return ""


def check_emit(code: int, text: str, path: Path, archive: Archive,
               model: Model) -> str:
    """The WCNF header agrees with its body, there is one soft unit per
    migration candidate, and the atom map lists exactly the archive's
    packages before any installation atom."""
    if code != EXIT_OK:
        return f"exit code {code}"
    if text != f"wrote {path} and {path}.map\n":
        return f"unexpected output {text[:60]!r}"
    lines = path.read_text().splitlines()
    header = lines[0].split()
    if header[:2] != ["p", "wcnf"] or len(header) != 5:
        return f"bad header {lines[0]!r}"
    num_vars, num_clauses, top = map(int, header[2:])
    if num_clauses != len(lines) - 1:
        return "clause count disagrees with the header"
    soft = 0
    for line in lines[1:]:
        values = [int(tok) for tok in line.split()]
        if values[-1] != 0 or any(abs(v) > num_vars for v in values[1:-1]):
            return f"bad clause line {line!r}"
        if values[0] == 1:
            soft += 1
        elif values[0] != top:
            return f"bad weight in {line!r}"
    candidates = set(model.unstable) ^ set(model.testing)
    if soft != len(candidates) or top != soft + 1:
        return f"{soft} soft clauses for {len(candidates)} candidates"
    atom_lines = Path(f"{path}.map").read_text().splitlines()
    if len(atom_lines) != num_vars:
        return "atom map length disagrees with the header"
    expected = sorted(pkg_text(archive, p) for p in model.packages)
    listed = [line.split()[2] for line in atom_lines if line.split()[1] == "pkg"]
    if sorted(listed) != expected or any(
            line.split()[1] == "pkg" for line in atom_lines[len(listed):]):
        return "package atoms differ from the archive's packages"
    return ""
