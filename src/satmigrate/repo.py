"""Formal repository model.

Packages, the fully expanded dependency function, the conflict relation,
installations, installability, trimmedness and admissibility, used to
verify everything the solver pipeline produces. The reference oracles,
exhaustive and SAT, live with the tests, in ``tests/oracle.py``.

``build_universe`` is where packages are interned, once per load: it
sorts the (name, version) keys, builds each ``Package`` once, and expands
each distinct constraint once, straight into ids. The ``Universe`` holds
the resulting id tables; ``ClosureIndex`` reads them as they are, and
the Package-level views ``Universe.dep`` and ``Universe.conflicts`` are
built only when read. ``closure_universe`` cuts a universe down to one
package's closure, with the same tables over fewer ids.

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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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

    The relations are id tables: a package's id is its position in
    ``order``, the packages sorted by (name, version). ``deps[i]`` holds
    i's distinct dependency disjunctions, fewest members first and then by
    their ids, each as its members' ids, ascending; one of them must be
    installed alongside i, and an empty one marks i uninstallable.
    ``conflict_pairs`` holds each conflict once, as (a, b) with a < b,
    ascending.

    ``dep`` and ``conflicts`` show the same relations on Packages: ``dep``
    maps each package to its disjunctions as frozensets, in the same
    order, and ``conflicts`` is the symmetric, irreflexive set of ordered
    pairs. They are derived on first read, for the tests and the oracles
    in ``tests/oracle.py``; the runtime reads the tables, through
    ``ClosureIndex``.
    """

    order: tuple[Package, ...]
    deps: tuple[tuple[tuple[int, ...], ...], ...]
    conflict_pairs: tuple[tuple[int, int], ...]
    testing: frozenset[Package]
    unstable: frozenset[Package]

    @cached_property
    def packages(self) -> frozenset[Package]:
        return self.testing | self.unstable

    @cached_property
    def dep(self) -> Mapping[Package, tuple[frozenset[Package], ...]]:
        order = self.order
        return {p: tuple(frozenset(order[i] for i in d) for d in ds)
                for p, ds in zip(order, self.deps)}

    @cached_property
    def conflicts(self) -> frozenset[tuple[Package, Package]]:
        order = self.order
        return frozenset(pair for a, b in self.conflict_pairs
                         for pair in ((order[a], order[b]),
                                      (order[b], order[a])))

    def sorted_packages(self) -> list[Package]:
        return list(self.order)


def _disjunction_order(disjunctions: list[tuple[int, ...]]
                       ) -> tuple[tuple[int, ...], ...]:
    """The distinct disjunctions, fewest members first, then by ids."""
    if len(disjunctions) < 2:
        return tuple(disjunctions)
    return tuple(sorted(set(disjunctions), key=lambda d: (len(d), d)))


def make_universe(packages: Iterable[Package],
                  dep: Mapping[Package, Iterable[Iterable[Package]]],
                  conflicts: Iterable[tuple[Package, Package]],
                  testing: Iterable[Package],
                  unstable: Iterable[Package]) -> Universe:
    """Validate and normalize Package-level model data into a Universe.

    Conflicts are symmetrized and reflexive pairs dropped; dependency
    disjunctions are deduplicated and stored in a deterministic order.
    """
    pkgs = frozenset(packages)
    t = frozenset(testing)
    u = frozenset(unstable)
    if t | u != pkgs:
        raise ValueError("packages must equal testing ∪ unstable")
    order = tuple(sorted(pkgs, key=attrgetter("name", "version")))
    ids = {p: i for i, p in enumerate(order)}
    deps = []
    for p in order:
        disjunctions = []
        for disjunction in dep.get(p, ()):
            members = frozenset(disjunction)
            if not members <= pkgs:
                raise ValueError(f"dependency of {p} references unknown packages")
            disjunctions.append(tuple(sorted(ids[q] for q in members)))
        deps.append(_disjunction_order(disjunctions))
    pairs = set()
    for a, b in conflicts:
        if a not in pkgs or b not in pkgs:
            raise ValueError("conflict references unknown packages")
        if a != b:
            pairs.add(tuple(sorted((ids[a], ids[b]))))
    return Universe(order=order, deps=tuple(deps),
                    conflict_pairs=tuple(sorted(pairs)), testing=t, unstable=u)


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

    This is where packages are interned: the (name, version) keys are
    sorted once, each Package is built once, and each distinct constraint
    is expanded once, straight into the ascending ids of its matches.
    """
    stanza_of: dict[tuple[str, str], PackageStanza] = {}
    keys_in: tuple[list, list] = ([], [])
    for repo_stanzas, repo_keys in zip((testing, unstable), keys_in):
        for stanza in repo_stanzas:
            key = stanza.name, stanza.version
            first = stanza_of.setdefault(key, stanza)
            if first is not stanza and (_stanza_signature(first)
                                        != _stanza_signature(stanza)):
                raise DuplicateIdentity(
                    f"{Package(*key)} declared twice with different metadata")
            repo_keys.append(key)
    keys = sorted(stanza_of)
    stanzas = [stanza_of[key] for key in keys]
    by_name: dict[str, list[int]] = {}
    providers: dict[str, list[int]] = {}
    for i, (key, stanza) in enumerate(zip(keys, stanzas)):
        by_name.setdefault(key[0], []).append(i)
        for virtual in stanza.provides:
            providers.setdefault(virtual, []).append(i)

    expansions: dict[VersionConstraint, tuple[int, ...]] = {}

    def expand(constraint: VersionConstraint) -> tuple[int, ...]:
        matches = expansions.get(constraint)
        if matches is None:
            name = constraint.name
            real = by_name.get(name, [])
            if constraint.relation != controlfile.ANY:
                matches = tuple(i for i in real
                                if constraint.matches(name, keys[i][1]))
            elif name in providers:
                matches = tuple(sorted({*real, *providers[name]}))
            else:
                matches = tuple(real)
            expansions[constraint] = matches
        return matches

    deps = []
    pairs = set()
    for i, stanza in enumerate(stanzas):
        deps.append(_disjunction_order([
            expand(group[0]) if len(group) == 1
            else tuple(sorted(set().union(*map(expand, group))))
            for group in stanza.depends]))
        for constraint in stanza.conflicts:
            for j in expand(constraint):
                if j != i:
                    pairs.add((i, j) if i < j else (j, i))
    order = tuple(Package(name, version) for name, version in keys)
    package_of = dict(zip(keys, order))
    t, u = (frozenset(map(package_of.__getitem__, repo_keys))
            for repo_keys in keys_in)
    return Universe(order=order, deps=tuple(deps),
                    conflict_pairs=tuple(sorted(pairs)), testing=t, unstable=u)


def closure_universe(u: Universe, p: Package) -> Universe:
    """The sub-universe of p's closure: the packages that a walk from p
    over ``deps`` reaches, p included. Every dependency of a member is a
    member, so the members keep all their relations. Ids are renumbered
    in order, so ``deps`` and ``conflict_pairs`` keep their order."""
    order, deps = u.order, u.deps
    start = bisect_left(order, p)
    if start == len(order) or order[start] != p:
        raise ValueError(f"unknown package {p}")
    seen = {start}
    todo = [start]
    while todo:
        for targets in deps[todo.pop()]:
            for q in targets:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    kept = sorted(seen)
    renumber = {old: new for new, old in enumerate(kept)}.__getitem__
    members = tuple(map(order.__getitem__, kept))
    inside = frozenset(members)
    return Universe(
        order=members,
        deps=tuple(tuple(tuple(map(renumber, targets)) for targets in deps[i])
                   for i in kept),
        conflict_pairs=tuple((renumber(a), renumber(b))
                             for a, b in u.conflict_pairs
                             if a in seen and b in seen),
        testing=u.testing & inside, unstable=u.unstable & inside)


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
