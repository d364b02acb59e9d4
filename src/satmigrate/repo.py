"""Formal repository model.

Packages, the fully expanded dependency function, the conflict relation,
installations, installability, trimmedness and admissibility, used to
verify everything the solver pipeline produces. The reference oracles,
exhaustive and SAT, live in ``satmigrate.oracle``.

``installable_ids`` decides installability for every member of a
repository r at once, on sets of ``ClosureIndex`` ids, in four exact
steps:

1. Fixpoint. ``live`` is the greatest subset of r that meets every
   dependency disjunction of its own members: packages are dropped until
   none has a disjunction with no member left. Every healthy installation
   inside r is such a subset, so it lies inside ``live``, and a package
   outside ``live`` is not installable.
2. Conflict-free closures. If closure(p) ∩ live holds no conflict pair,
   it is itself a healthy installation of p: each of its members has a
   live member in every disjunction, and that member lies in the member's
   closure, so inside closure(p). The test reads only the live conflict
   ends inside closure(p), which the index keeps per closure.
3. A greedy installation. A walk from p meets every disjunction that the
   set built so far does not meet with the lowest live member that
   conflicts with nothing in the set. Each member added meets the
   disjunction it was added for and conflicts with no earlier member, so
   if the walk never finds a disjunction without such a member, the set
   is a healthy installation of p inside r. It is checked as one before
   p is reported installable. A dead end proves nothing, since an earlier
   choice may have caused it, and p goes on to step 4.
4. SAT over the live closure. One query over closure(p) ∩ live decides
   p. A model is a healthy installation of p inside live, so inside r.
   Conversely, a healthy installation of p inside r lies in live, and cut
   down to p's closure it stays healthy, since every dependency of a
   member lies in that member's closure; so it is a model. The witness is
   checked before p is reported installable; the solver is never trusted.

A healthy installation W inside r is also an installation of each of its
members, so every member of an installation that steps 2–4 find is
marked installable and is not visited again. Packages are visited in
order of decreasing closure size, ties by id: a package comes before its
dependencies outside its own cycle, so the installations of the large
closures cover them. ``installable_in`` answers for one package, with
the fixpoint taken over closure(p) ∩ r only, by the same cut-down
argument.

``check``'s explanations ask step 4's query, ``installation_query``,
over closure(p) ∩ testing instead of closure(p) ∩ live.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from . import controlfile, satcore
from .controlfile import PackageStanza, VersionConstraint

if TYPE_CHECKING:  # pragma: no cover
    from .closure import ClosureIndex
    from .encoder import PolicyRules


class RepoError(Exception):
    """Base class for repository-model failures."""


class InstallabilityTimedOut(RepoError):
    """An installability query ran out of its time budget."""


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
        # Package's own order, by a key that compares in C
        return sorted(self.packages, key=attrgetter("name", "version"))


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
    """The metadata two stanzas of one (name, version) must agree on."""
    return stanza.depends, stanza.conflicts, sorted(stanza.provides)


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


def _has_conflict(members: set[int], idx: "ClosureIndex") -> bool:
    """Whether two of the members conflict."""
    partners = idx.partners
    return any(not members.isdisjoint(partners[a]) for a in members)


def _is_installation(witness: set[int], p: int, r: set[int],
                     idx: "ClosureIndex") -> bool:
    """An installation of p inside r: healthy, contains p, lies inside r."""
    deps = idx.deps
    return (p in witness and witness <= r
            and all(not witness.isdisjoint(targets)
                    for q in witness for targets in deps[q])
            and not _has_conflict(witness, idx))


def _live(r: set[int], idx: "ClosureIndex") -> set[int]:
    """Step 1 of the module docstring: the greatest subset of r that meets
    every dependency disjunction of its own members."""
    deps, dependents = idx.deps, idx.dependents
    live = set(r)
    todo = list(live)
    while todo:
        p = todo.pop()
        if p in live and any(live.isdisjoint(targets) for targets in deps[p]):
            live.remove(p)
            todo += dependents[p]
    return live


def _greedy_installation(p: int, live: set[int], idx: "ClosureIndex"
                         ) -> set[int]:
    """Step 3 of the module docstring: a walk from p that meets each
    disjunction not yet met with its lowest live member that conflicts with
    nothing chosen so far; empty at a dead end."""
    deps, partners = idx.deps, idx.partners
    chosen = {p}
    banned = set(partners[p])
    todo = [p]
    while todo:
        for targets in deps[todo.pop()]:
            if not chosen.isdisjoint(targets):
                continue
            for q in targets:
                if q in live and q not in banned:
                    break
            else:
                return set()
            chosen.add(q)
            banned.update(partners[q])
            todo.append(q)
    return chosen


def _checked(witness: set[int], p: int, r: set[int],
             idx: "ClosureIndex") -> set[int]:
    """The witness, once it passes as an installation of p inside r; one
    that fails is an internal error."""
    if not _is_installation(witness, p, r, idx):
        raise satcore.SatCoreError(
            f"internal error: installation witness for {idx.packages[p]}"
            " failed verification")
    return witness


def installation_query(p: int, members: Iterable[int], idx: "ClosureIndex"):
    """SAT query for an installation of p among ``members``. Returns
    (clauses, info, ids): atom k stands for ids[k-1], the ids ascending,
    and info[j] is the provenance of clauses[j] on idx's ids (an inst-dep
    entry names the disjunction's members inside ``members``)."""
    ids = sorted(members)
    atom = {q: k for k, q in enumerate(ids, start=1)}
    clauses = [(atom[p],)]
    info: list[tuple] = [("inst-target", p)]
    for q in ids:
        for targets in idx.deps[q]:
            inside = tuple(x for x in targets if x in atom)
            clauses.append((-atom[q], *(atom[x] for x in inside)))
            info.append(("inst-dep", q, targets
                         if len(inside) == len(targets) else inside))
    for a in ids:
        for b in idx.partners[a]:
            if b > a and b in atom:
                clauses.append((-atom[a], -atom[b]))
                info.append(("inst-conflict", a, b))
    return clauses, info, ids


def _installation_by_query(p: int, r: set[int], live: set[int],
                           idx: "ClosureIndex") -> set[int]:
    """Step 4 of the module docstring: one SAT query over the live members
    of p's closure. Returns its witness, checked, or an empty set when the
    query is UNSAT."""
    clauses, _, ids = installation_query(
        p, live.intersection(idx.closure(p)), idx)
    result = satcore.solve_sat(clauses, num_vars=len(ids))
    if result.status is satcore.SolveStatus.TIMEOUT:
        raise InstallabilityTimedOut(
            f"installability query for {idx.packages[p]} timed out")
    if result.status is not satcore.SolveStatus.SAT:
        return set()
    return _checked({ids[k - 1] for k in result.true_atoms}, p, r, idx)


def _installation(p: int, r: set[int], live: set[int],
                  idx: "ClosureIndex") -> set[int]:
    """An installation of p inside live, by steps 2–4 of the module
    docstring, or an empty set when p has none. live must be the fixpoint
    of step 1 over a subset of r that holds p's closure ∩ r."""
    if not _has_conflict(live.intersection(idx.closure_ends[p]), idx):
        return live.intersection(idx.closure(p))
    witness = _greedy_installation(p, live, idx)
    if witness:
        return _checked(witness, p, r, idx)
    return _installation_by_query(p, r, live, idx)


def installable_ids(r: set[int], idx: "ClosureIndex") -> set[int]:
    """The members of r (a set of idx's ids) that are installable in r, by
    the steps of the module docstring. Packages are visited largest
    closure first, and every installation found marks all its members."""
    live = _live(r, idx)
    closure = idx.closure
    found: set[int] = set()
    for p in sorted(live, key=lambda q: (-len(closure(q)), q)):
        if p not in found:
            found |= _installation(p, r, live, idx)
    return found


def installable_in(p: int, r: set[int], idx: "ClosureIndex") -> bool:
    """Whether p, a member of r, is installable in r: the steps of the
    module docstring over closure(p) ∩ r alone."""
    live = _live(r.intersection(idx.closure(p)), idx)
    return p in live and bool(_installation(p, r, live, idx))


def _index(u: Universe, idx: "ClosureIndex | None") -> "ClosureIndex":
    """idx, or a fresh index of u when it is None."""
    if idx is None:
        from .closure import ClosureIndex  # closure imports this module
        idx = ClosureIndex(u)
    return idx


def is_installable(p: Package, r: Iterable[Package], u: Universe,
                   idx: "ClosureIndex | None" = None) -> bool:
    """Whether p, a member of r, is installable in r, by ``installable_in``."""
    idx = _index(u, idx)
    i, members = idx.ids.get(p), idx.id_set(r)
    if i not in members:
        raise ValueError("need p ∈ r ⊆ packages")
    return installable_in(i, members, idx)


def uninstallable(r: Iterable[Package], u: Universe,
                  idx: "ClosureIndex | None" = None) -> list[Package]:
    """The members of r that are not installable in r, in sorted order."""
    idx = _index(u, idx)
    members = idx.id_set(r)
    return [idx.packages[i]
            for i in sorted(members - installable_ids(members, idx))]


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


def policy_rule_text(rule) -> str:
    """A policy group or clause as its signed literals, e.g. "+a/1 -b/2"."""
    return " ".join(f"{'+' if sign > 0 else '-'}{pkg}" for sign, pkg in rule)


def _policy_violation(t_prime: frozenset[Package], policy: "PolicyRules"
                      ) -> AdmissibilityVerdict | None:
    """The verdict on the first policy rule t_prime breaks, groups before
    clauses, or None when it keeps them all."""
    for group in policy.groups:
        values = {_policy_literal_true(sign, pkg, t_prime)
                  for sign, pkg in group}
        if len(values) > 1:
            return AdmissibilityVerdict(
                False, "policy", "group not all-or-none: " +
                policy_rule_text(group), tuple(pkg for _, pkg in group))
    for clause in policy.extra_clauses:
        if not any(_policy_literal_true(sign, pkg, t_prime)
                   for sign, pkg in clause):
            return AdmissibilityVerdict(
                False, "policy", "clause unsatisfied: " +
                policy_rule_text(clause), tuple(pkg for _, pkg in clause))
    return None


def policy_satisfied(t_prime: frozenset[Package],
                     policy: "PolicyRules | None") -> bool:
    return policy is None or _policy_violation(t_prime, policy) is None


def is_admissible(t_prime: Iterable[Package], u: Universe,
                  policy: "PolicyRules | None" = None,
                  idx: "ClosureIndex | None" = None) -> AdmissibilityVerdict:
    """Check Uniqueness, Trimmedness and the policy rules on a migration.

    Reports the first witnessed violation in a deterministic order.
    """
    chosen = frozenset(t_prime)
    if not chosen <= u.packages:
        raise ValueError("candidate repository references unknown packages")
    idx = _index(u, idx)
    seen: dict[str, Package] = {}
    for i in sorted(idx.id_set(chosen)):
        p = idx.packages[i]
        if p.name in seen:
            return AdmissibilityVerdict(
                False, "uniqueness",
                f"name {p.name} occurs twice: {seen[p.name]} and {p}",
                (seen[p.name], p))
        seen[p.name] = p
    broken = uninstallable(chosen, u, idx)
    if broken:
        return AdmissibilityVerdict(
            False, "trimmedness", f"{broken[0]} is not installable",
            (broken[0],))
    if policy is not None:
        violation = _policy_violation(chosen, policy)
        if violation is not None:
            return violation
    return AdmissibilityVerdict(True)


def check_testing(u: Universe, idx: "ClosureIndex | None" = None
                  ) -> list[AdmissibilityVerdict]:
    """All uniqueness/trimmedness defects of the incoming testing repository."""
    idx = _index(u, idx)
    violations = []
    by_name: dict[str, list[Package]] = {}
    for i in sorted(idx.id_set(u.testing)):  # ids ascend in name order
        p = idx.packages[i]
        by_name.setdefault(p.name, []).append(p)
    for name, group in by_name.items():
        if len(group) > 1:
            violations.append(AdmissibilityVerdict(
                False, "uniqueness",
                f"name {name} occurs {len(group)} times in testing",
                tuple(group)))
    for p in uninstallable(u.testing, u, idx):
        violations.append(AdmissibilityVerdict(
            False, "trimmedness", f"{p} is not installable in testing", (p,)))
    return violations
