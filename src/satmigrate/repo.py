"""Formal repository model.

Packages, the fully expanded dependency function, the conflict relation,
installations, installability, trimmedness and admissibility, used to
verify everything the solver pipeline produces. The exhaustive reference
oracles live in ``satmigrate.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from . import controlfile, satcore
from .controlfile import PackageStanza, VersionConstraint

if TYPE_CHECKING:  # pragma: no cover
    from .encoder import PolicyRules

class RepoError(Exception):
    """Base class for repository-model failures."""


class DuplicateIdentity(RepoError):
    """Two stanzas share (name, version) but disagree on metadata."""


@dataclass(frozen=True, order=True)
class Package:
    """A package is a name plus a version; identity and order are by both."""

    name: str
    version: str

    def __str__(self) -> str:
        return f"{self.name}/{self.version}"

    @classmethod
    def parse(cls, spec: str) -> "Package":
        name, sep, version = spec.partition("/")
        if not sep or not name or not version:
            raise ValueError(f"package spec must be name/version, got {spec!r}")
        return cls(name, version)


@dataclass(frozen=True)
class Universe:
    """The package world B = testing ∪ unstable with expanded relations.

    ``dep`` maps each package to its dependency disjunctions (sets of
    packages, one of which must be installed alongside it; an empty
    disjunction marks the package uninstallable). ``conflicts`` is a
    symmetric, irreflexive set of ordered pairs.
    """

    packages: frozenset[Package]
    dep: Mapping[Package, tuple[frozenset[Package], ...]]
    conflicts: frozenset[tuple[Package, Package]]
    testing: frozenset[Package]
    unstable: frozenset[Package]

    def sorted_packages(self) -> list[Package]:
        return sorted(self.packages)


def make_universe(packages: Iterable[Package],
                  dep: Mapping[Package, Iterable[Iterable[Package]]],
                  conflicts: Iterable[tuple[Package, Package]],
                  testing: Iterable[Package],
                  unstable: Iterable[Package]) -> Universe:
    """Validate and normalize raw model data into a Universe.

    Conflicts are symmetrized and reflexive pairs dropped; dependency
    disjunctions are deduplicated and stored in a deterministic order.
    """
    pkgs = frozenset(packages)
    t = frozenset(testing)
    u = frozenset(unstable)
    if t | u != pkgs:
        raise ValueError("packages must equal testing ∪ unstable")
    norm_dep: dict[Package, tuple[frozenset[Package], ...]] = {}
    for p in pkgs:
        seen = []
        for disjunction in dep.get(p, ()):
            members = frozenset(disjunction)
            if not members <= pkgs:
                raise ValueError(f"dependency of {p} references unknown packages")
            if members not in seen:
                seen.append(members)
        seen.sort(key=lambda d: (len(d), sorted(d)))
        norm_dep[p] = tuple(seen)
    pairs = set()
    for a, b in conflicts:
        if a not in pkgs or b not in pkgs:
            raise ValueError("conflict references unknown packages")
        if a != b:
            pairs.add((a, b))
            pairs.add((b, a))
    return Universe(packages=pkgs, dep=norm_dep, conflicts=frozenset(pairs),
                    testing=t, unstable=u)


def _stanza_signature(stanza: PackageStanza) -> tuple:
    return (controlfile.format_dependency_expr(stanza.depends),
            controlfile.format_conflict_expr(stanza.conflicts),
            tuple(sorted(stanza.provides)))


def build_universe(testing: list[PackageStanza],
                   unstable: list[PackageStanza]) -> Universe:
    """Expand stanza-level constraints into the concrete-package model.

    A bare-name constraint matches real packages of that name plus every
    provider of the name; a versioned constraint matches real packages
    only. A package pair conflicting with itself (directly or through a
    provided name) is dropped.
    """
    stanza_of: dict[Package, PackageStanza] = {}
    membership: dict[Package, set[str]] = {}
    for repo_name, stanzas in (("testing", testing), ("unstable", unstable)):
        for stanza in stanzas:
            pkg = Package(stanza.name, stanza.version)
            if pkg in stanza_of:
                if _stanza_signature(stanza_of[pkg]) != _stanza_signature(stanza):
                    raise DuplicateIdentity(
                        f"{pkg} declared twice with different metadata")
            else:
                stanza_of[pkg] = stanza
            membership.setdefault(pkg, set()).add(repo_name)
    pkgs = frozenset(stanza_of)
    by_name: dict[str, list[Package]] = {}
    providers: dict[str, list[Package]] = {}
    for pkg, stanza in stanza_of.items():
        by_name.setdefault(pkg.name, []).append(pkg)
        for virtual in stanza.provides:
            providers.setdefault(virtual, []).append(pkg)

    def expand(constraint: VersionConstraint) -> frozenset[Package]:
        matches = [q for q in by_name.get(constraint.name, ())
                   if constraint.matches(q.name, q.version)]
        if constraint.relation == controlfile.ANY:
            matches += providers.get(constraint.name, ())
        return frozenset(matches)

    dep = {}
    conflict_pairs = []
    for pkg, stanza in stanza_of.items():
        dep[pkg] = [frozenset().union(*(expand(alt) for alt in group))
                    for group in stanza.depends]
        for constraint in stanza.conflicts:
            conflict_pairs += [(pkg, q) for q in expand(constraint) if q != pkg]
    return make_universe(
        packages=pkgs,
        dep=dep,
        conflicts=conflict_pairs,
        testing=[p for p, where in membership.items() if "testing" in where],
        unstable=[p for p, where in membership.items() if "unstable" in where],
    )


def unique_pairs(u: Universe) -> frozenset[tuple[Package, Package]]:
    """All ordered pairs sharing a name with different versions."""
    by_name: dict[str, list[Package]] = {}
    for p in u.packages:
        by_name.setdefault(p.name, []).append(p)
    pairs = set()
    for group in by_name.values():
        for a in group:
            for b in group:
                if a != b:
                    pairs.add((a, b))
    return frozenset(pairs)


def is_healthy(members: Iterable[Package], u: Universe) -> bool:
    """True iff every dependency disjunction is met inside the set and no
    conflicting pair is present."""
    mset = frozenset(members)
    for p in mset:
        for disjunction in u.dep.get(p, ()):
            if not disjunction & mset:
                return False
    for a, b in u.conflicts:
        if a in mset and b in mset:
            return False
    return True


def reachable(p: Package, u: Universe) -> frozenset[Package]:
    """Reflexive-transitive closure of "may depend" from one package."""
    seen = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        for disjunction in u.dep.get(q, ()):
            for succ in disjunction:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return frozenset(seen)


def installability_clauses(p: Package, r: Iterable[Package], u: Universe):
    """SAT query for "p is installable in r", restricted to p's closure.

    Returns (clauses, info, context_packages); atom i+1 stands for
    "context_packages[i] is in the installation".
    """
    ctx = sorted(reachable(p, u) & frozenset(r))
    index = {q: i + 1 for i, q in enumerate(ctx)}
    clauses: list[tuple[int, ...]] = [(index[p],)]
    info: list[tuple] = [("inst-target", p)]
    for q in ctx:
        for disjunction in u.dep.get(q, ()):
            available = frozenset(x for x in disjunction if x in index)
            clauses.append(tuple([-index[q]] +
                                 sorted(index[x] for x in available)))
            info.append(("inst-dep", q, available))
    for a, b in sorted((a, b) for a, b in u.conflicts
                       if a in index and b in index and a < b):
        clauses.append((-index[a], -index[b]))
        info.append(("inst-conflict", a, b))
    return clauses, info, ctx


def is_installable(p: Package, r: Iterable[Package], u: Universe) -> bool:
    """Decide whether some healthy installation within r contains p, by one
    SAT query over p's dependency closure."""
    rset = frozenset(r)
    if p not in rset or not rset <= u.packages:
        raise ValueError("need p ∈ r ⊆ packages")
    clauses, _, ctx = installability_clauses(p, rset, u)
    result = satcore.solve_sat(clauses, num_vars=len(ctx))
    if result.status is satcore.SolveStatus.TIMEOUT:
        raise RepoError(f"installability query for {p} timed out")
    return result.status is satcore.SolveStatus.SAT


def is_trimmed(r: Iterable[Package], u: Universe) -> bool:
    rset = frozenset(r)
    return all(is_installable(p, rset, u) for p in sorted(rset))


@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    kind: str | None = None
    detail: str = ""
    subjects: tuple[Package, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _policy_literal_true(sign: int, pkg: Package, t_prime: frozenset[Package]) -> bool:
    return (pkg in t_prime) if sign > 0 else (pkg not in t_prime)


def policy_satisfied(t_prime: frozenset[Package],
                     policy: "PolicyRules | None") -> bool:
    if policy is None:
        return True
    for group in policy.groups:
        values = {_policy_literal_true(sign, pkg, t_prime)
                  for sign, pkg in group}
        if len(values) > 1:
            return False
    return all(any(_policy_literal_true(sign, pkg, t_prime)
                   for sign, pkg in clause)
               for clause in policy.extra_clauses)


def is_admissible(t_prime: Iterable[Package], u: Universe,
                  policy: "PolicyRules | None" = None) -> AdmissibilityVerdict:
    """Check Uniqueness, Trimmedness and the policy rules on a migration.

    Reports the first witnessed violation in a deterministic order.
    """
    chosen = frozenset(t_prime)
    if not chosen <= u.packages:
        raise ValueError("candidate repository references unknown packages")
    seen: dict[str, Package] = {}
    for p in sorted(chosen):
        if p.name in seen:
            return AdmissibilityVerdict(
                False, "uniqueness",
                f"name {p.name} occurs twice: {seen[p.name]} and {p}",
                (seen[p.name], p))
        seen[p.name] = p
    for p in sorted(chosen):
        if not is_installable(p, chosen, u):
            return AdmissibilityVerdict(
                False, "trimmedness", f"{p} is not installable", (p,))
    if policy is not None:
        for group in policy.groups:
            values = {_policy_literal_true(sign, pkg, chosen)
                      for sign, pkg in group}
            if len(values) > 1:
                subjects = tuple(pkg for _, pkg in group)
                return AdmissibilityVerdict(
                    False, "policy", "group not all-or-none: " +
                    " ".join(f"{'+' if s > 0 else '-'}{p}" for s, p in group),
                    subjects)
        for clause in policy.extra_clauses:
            if not any(_policy_literal_true(sign, pkg, chosen)
                       for sign, pkg in clause):
                return AdmissibilityVerdict(
                    False, "policy", "clause unsatisfied: " +
                    " ".join(f"{'+' if s > 0 else '-'}{p}" for s, p in clause),
                    tuple(pkg for _, pkg in clause))
    return AdmissibilityVerdict(True)


def check_testing(u: Universe) -> list[AdmissibilityVerdict]:
    """All uniqueness/trimmedness defects of the incoming testing repository."""
    violations = []
    by_name: dict[str, list[Package]] = {}
    for p in sorted(u.testing):
        by_name.setdefault(p.name, []).append(p)
    for name, group in sorted(by_name.items()):
        if len(group) > 1:
            violations.append(AdmissibilityVerdict(
                False, "uniqueness",
                f"name {name} occurs {len(group)} times in testing",
                tuple(group)))
    for p in sorted(u.testing):
        if not is_installable(p, u.testing, u):
            violations.append(AdmissibilityVerdict(
                False, "trimmedness", f"{p} is not installable in testing", (p,)))
    return violations
