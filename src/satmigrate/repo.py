"""Formal repository model.

Packages, the fully expanded dependency function, the conflict relation,
installations, installability, trimmedness and admissibility, used to
verify everything the solver pipeline produces. The reference oracles,
exhaustive and SAT, live with the tests, in ``tests/oracle.py``.

``build_universe`` is where packages are interned, once per load: it
sorts the (name, version) keys, builds each ``Package`` once, and expands
each distinct constraint once, straight into ids. The ``Universe`` holds
the resulting id tables, repositories included, and ``package_id`` turns
parsed input into ids. ``closure_universe`` cuts a universe down to one
package's closure, with the same tables over fewer ids; ``reach`` is the
one dependency walk. The checks take the ``Universe`` and nothing else,
so they read none of the preprocessing whose answers they verify; they
read and name ids, policies included: Packages appear only in parsed
input, reports and explanations.

A policy lives here whole: ``PolicyRules.parse`` reads a policy file,
and ``PolicyRules.literals``, the one place where its Packages become
ids, resolves it for ``policy_violation`` and the encoder alike.

``installable_ids`` decides installability for every member of a
repository r at once, on sets of ids, from the universe's own tables
alone (``deps``, ``partners`` and ``dependents``), in three exact steps:

1. Fixpoint. ``live`` is the greatest subset of r that meets every
   dependency disjunction of its own members: packages are dropped until
   none has a disjunction with no member left. Every healthy installation
   inside r is such a subset, so it lies inside ``live``, and a package
   outside ``live`` is not installable.
2. A greedy installation. A walk from p meets every disjunction that the
   set built so far does not meet with the lowest live member that
   conflicts with nothing in the set. Each member added meets the
   disjunction it was added for and conflicts with no earlier member, so
   if the walk never finds a disjunction without such a member, the set
   is a healthy installation of p inside r. It is checked as one before
   p is reported installable. Where no two live packages that p reaches
   conflict, the walk cannot dead end. A dead end proves nothing, since
   an earlier choice may have caused it, and p goes on to step 3.
3. SAT over what p reaches. One query over reach(p, live), the members
   of live that a walk from p over ``deps`` reaches through live, decides
   p. A model is a healthy installation of p inside live, so inside r.
   Conversely, a healthy installation of p inside r lies in live, and cut
   down to what p reaches through it, it stays healthy, since each
   member keeps the members that meet its disjunctions; that set lies
   inside reach(p, live), so it is a model. The witness is checked
   before p is reported installable; the solver is never trusted.

A healthy installation W inside r is also an installation of each of its
members, so every member of an installation that steps 2 and 3 find is
marked installable and is not visited again. Packages are visited in
ascending id order. ``installable_in`` answers for one package, with the
fixpoint taken over reach(p, r) only: every disjunction of a member meets
r only inside that set, so the fixpoint there is the one over r, cut
down to it.

``check``'s explanations ask step 3's query, ``installation_query``,
over reach(p, testing) instead of reach(p, live).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import groupby, starmap
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from . import controlfile, satcore
from .controlfile import PackageStanza, VersionConstraint


class RepoError(Exception):
    """Base class for repository-model failures."""


class DuplicateIdentity(RepoError):
    """Two stanzas share (name, version) but disagree on metadata."""


class UnknownPackage(RepoError, ValueError):
    """A policy rule references a package outside the universe."""


class Package(NamedTuple):
    """A package is a name plus a version; a named tuple, so identity
    and order are its plain (name, version) tuple's, at C level."""

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


def package_id(packages: Sequence[Package], p: Package) -> int | None:
    """p's id, its position in ``packages`` (a universe's ``order``), or
    None. The one Package → id lookup: it bisects, as ``order`` is sorted
    by Package's own (name, version) string order."""
    i = bisect_left(packages, p)
    return i if i < len(packages) and packages[i] == p else None


@dataclass(frozen=True)
class Universe:
    """The package world B = testing ∪ unstable with expanded relations.

    The repositories and relations are id tables: a package's id is its
    position in ``order``, the packages sorted by (name, version).
    ``deps[i]`` holds i's distinct dependency disjunctions, fewest members
    first and then by their ids, each as its members' ids, ascending; one
    of them must be installed alongside i, and an empty one marks i
    uninstallable. ``conflict_pairs`` holds each conflict once, as (a, b)
    with a < b, ascending. ``partners[i]`` holds i's conflict partners and
    ``dependents[i]`` the packages that may depend on i, both ascending;
    they are built on first read.

    ``testing``, ``unstable``, ``packages``, ``dep`` and ``conflicts``
    show the same data on Packages: ``dep`` maps each package to its
    disjunctions as frozensets, in the same order, and ``conflicts`` is
    the symmetric, irreflexive set of ordered pairs. They are derived on
    first read, for library callers, the tests and the oracles in
    ``tests/oracle.py``; no command reads them, as ``package_id`` finds
    a parsed Package's id in ``order``.
    """

    order: tuple[Package, ...]
    deps: tuple[tuple[tuple[int, ...], ...], ...]
    conflict_pairs: tuple[tuple[int, int], ...]
    testing_ids: frozenset[int]
    unstable_ids: frozenset[int]

    @cached_property
    def testing(self) -> frozenset[Package]:
        return frozenset(map(self.order.__getitem__, self.testing_ids))

    @cached_property
    def unstable(self) -> frozenset[Package]:
        return frozenset(map(self.order.__getitem__, self.unstable_ids))

    @cached_property
    def packages(self) -> frozenset[Package]:
        return frozenset(self.order)

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

    @cached_property
    def partners(self) -> list[tuple[int, ...]]:
        of_end: dict[int, list[int]] = {}
        for a, b in self.conflict_pairs:
            of_end.setdefault(a, []).append(b)
            of_end.setdefault(b, []).append(a)
        # one shared () for every package that conflicts with nothing
        partners: list[tuple[int, ...]] = [()] * len(self.order)
        for a, ps in of_end.items():
            partners[a] = tuple(sorted(ps))
        return partners

    @cached_property
    def dependents(self) -> list[list[int]]:
        dependents: list[list[int]] = [[] for _ in self.order]
        for v, deps in enumerate(self.deps):
            for w in set().union(*deps):
                dependents[w].append(v)
        return dependents


def _disjunction_order(disjunctions: list[tuple[int, ...]]
                       ) -> tuple[tuple[int, ...], ...]:
    """The distinct disjunctions, fewest members first, then by ids."""
    if len(disjunctions) < 2:
        return tuple(disjunctions)
    # two C-level sorts: by ids, then stably by size
    return tuple(sorted(sorted(set(disjunctions)), key=len))


def make_universe(packages: Iterable[Package],
                  dep: Mapping[Package, Iterable[Iterable[Package]]],
                  conflicts: Iterable[tuple[Package, Package]],
                  testing: Iterable[Package],
                  unstable: Iterable[Package]) -> Universe:
    """Validate and normalize Package-level model data into a Universe.

    Conflicts are symmetrized and reflexive pairs dropped; dependency
    disjunctions are deduplicated and stored in a deterministic order.
    """
    pkgs, t, u = frozenset(packages), frozenset(testing), frozenset(unstable)
    if t | u != pkgs:
        raise ValueError("packages must equal testing ∪ unstable")
    order = tuple(sorted(pkgs))
    id_of = partial(package_id, order)
    deps = []
    for p in order:
        disjunctions = []
        for disjunction in dep.get(p, ()):
            members = frozenset(disjunction)
            if not members <= pkgs:
                raise ValueError(f"dependency of {p} references unknown packages")
            disjunctions.append(tuple(sorted(map(id_of, members))))
        deps.append(_disjunction_order(disjunctions))
    pairs = set()
    for a, b in conflicts:
        if a not in pkgs or b not in pkgs:
            raise ValueError("conflict references unknown packages")
        if a != b:
            pairs.add(tuple(sorted((id_of(a), id_of(b)))))
    return Universe(order=order, deps=tuple(deps),
                    conflict_pairs=tuple(sorted(pairs)),
                    testing_ids=frozenset(map(id_of, t)),
                    unstable_ids=frozenset(map(id_of, u)))


def _stanza_signature(stanza: PackageStanza) -> tuple:
    """The metadata two stanzas of one (name, version) must agree on."""
    return stanza.depends, stanza.conflicts, sorted(stanza.provides)


class _Expansions(dict):
    """Each constraint's matches, as the ascending ids of the packages
    ``keys`` (sorted (name, version) pairs) that it matches; each is
    expanded at its first lookup, as build_universe's docstring says."""

    def __init__(self, keys: list[tuple[str, str]],
                 by_name: dict[str, range],
                 providers: dict[str, list[int]]):
        super().__init__()
        # not self.keys, which would hide dict.keys
        self.sorted_keys, self.by_name, self.providers = keys, by_name, providers

    def __missing__(self, constraint: VersionConstraint) -> tuple[int, ...]:
        name = constraint.name
        real = self.by_name.get(name, ())
        if constraint.relation != controlfile.ANY:
            keys = self.sorted_keys
            matches = tuple(i for i in real
                            if constraint.matches(name, keys[i][1]))
        elif name in self.providers:
            matches = tuple(sorted({*real, *self.providers[name]}))
        else:
            matches = tuple(real)
        self[constraint] = matches
        return matches


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
    # the keys are sorted, so each name's ids are one range
    first: dict[str, int] = {}
    for i, (name, _) in enumerate(keys):
        first.setdefault(name, i)
    starts = list(first.values())
    by_name = dict(zip(first, map(range, starts, starts[1:] + [len(keys)])))
    providers: dict[str, list[int]] = {}
    for i, stanza in enumerate(stanzas):
        for virtual in stanza.provides:
            providers.setdefault(virtual, []).append(i)

    expansions = _Expansions(keys, by_name, providers)
    deps = []
    pairs = set()
    for i, stanza in enumerate(stanzas):
        deps.append(_disjunction_order([
            expansions[group[0]] if len(group) == 1
            else tuple(sorted(set().union(*map(expansions.__getitem__, group))))
            for group in stanza.depends]))
        for constraint in stanza.conflicts:
            for j in expansions[constraint]:
                if j != i:
                    pairs.add((i, j) if i < j else (j, i))
    id_of = {key: i for i, key in enumerate(keys)}
    t, u = (frozenset(map(id_of.__getitem__, repo_keys))
            for repo_keys in keys_in)
    return Universe(order=tuple(starmap(Package, keys)),
                    deps=tuple(deps), conflict_pairs=tuple(sorted(pairs)),
                    testing_ids=t, unstable_ids=u)


def reach(p: int, within: Container[int], deps: Sequence) -> set[int]:
    """The members of ``within`` that a walk from p over ``deps`` (id
    tables, as ``Universe.deps``) reaches, entering only members of
    ``within``; p included."""
    seen = {p}
    todo = [p]
    while todo:
        for targets in deps[todo.pop()]:
            for q in targets:
                if q not in seen and q in within:
                    seen.add(q)
                    todo.append(q)
    return seen


def closure_universe(u: Universe, p: Package) -> Universe:
    """The sub-universe of p's closure: the packages that a walk from p
    over ``deps`` reaches, p included. Every dependency of a member is a
    member, so the members keep all their relations. Ids are renumbered
    in order, so ``deps`` and ``conflict_pairs`` keep their order."""
    order, deps = u.order, u.deps
    start = package_id(order, p)
    if start is None:
        raise ValueError(f"unknown package {p}")
    seen = reach(start, range(len(order)), deps)
    kept = sorted(seen)
    renumber = {old: new for new, old in enumerate(kept)}.__getitem__
    return Universe(
        order=tuple(map(order.__getitem__, kept)),
        deps=tuple(tuple(tuple(map(renumber, targets)) for targets in deps[i])
                   for i in kept),
        conflict_pairs=tuple((renumber(a), renumber(b))
                             for a, b in u.conflict_pairs
                             if a in seen and b in seen),
        testing_ids=frozenset(map(renumber, u.testing_ids & seen)),
        unstable_ids=frozenset(map(renumber, u.unstable_ids & seen)))


def _has_conflict(members: set[int], u: Universe) -> bool:
    """Whether two of the members conflict."""
    partners = u.partners
    return any(not members.isdisjoint(partners[a]) for a in members)


def _is_installation(witness: set[int], p: int, r: set[int],
                     u: Universe) -> bool:
    """An installation of p inside r: healthy, contains p, lies inside r."""
    deps = u.deps
    return (p in witness and witness <= r
            and all(not witness.isdisjoint(targets)
                    for q in witness for targets in deps[q])
            and not _has_conflict(witness, u))


def _live(r: set[int], u: Universe) -> set[int]:
    """Step 1 of the module docstring: the greatest subset of r that meets
    every dependency disjunction of its own members."""
    deps, dependents = u.deps, u.dependents
    live = set(r)
    todo = list(live)
    while todo:
        p = todo.pop()
        if p in live and any(live.isdisjoint(targets) for targets in deps[p]):
            live.remove(p)
            todo += dependents[p]
    return live


def _greedy_installation(p: int, live: set[int], u: Universe) -> set[int]:
    """Step 2 of the module docstring: a walk from p that meets each
    disjunction not yet met with its lowest live member that conflicts with
    nothing chosen so far; empty at a dead end."""
    deps, partners = u.deps, u.partners
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


def _checked(witness: set[int], p: int, r: set[int], u: Universe) -> set[int]:
    """The witness, once it passes as an installation of p inside r; one
    that fails is an internal error."""
    if not _is_installation(witness, p, r, u):
        raise satcore.SatCoreError(
            f"internal error: installation witness for {u.order[p]}"
            " failed verification")
    return witness


def installation_query(p: int, within: Container[int], u: Universe):
    """SAT query for an installation of p among the members of ``within``
    that p reaches (``reach``). Returns (clauses, info, ids): atom k stands
    for ids[k-1], the ids ascending, and info[j] is the provenance of
    clauses[j] on u's ids (an inst-dep entry names the disjunction's
    members inside ``within``)."""
    ids = sorted(reach(p, within, u.deps))
    atom = {q: k for k, q in enumerate(ids, start=1)}
    clauses = [(atom[p],)]
    info: list[tuple] = [("inst-target", p)]
    for q in ids:
        for targets in u.deps[q]:
            inside = tuple(x for x in targets if x in atom)
            clauses.append((-atom[q], *(atom[x] for x in inside)))
            info.append(("inst-dep", q, targets
                         if len(inside) == len(targets) else inside))
    for a in ids:
        for b in u.partners[a]:
            if b > a and b in atom:
                clauses.append((-atom[a], -atom[b]))
                info.append(("inst-conflict", a, b))
    return clauses, info, ids


def _installation(p: int, r: set[int], live: set[int],
                  u: Universe, deadline: float) -> set[int]:
    """An installation of p inside live, by steps 2 and 3 of the module
    docstring, checked, or an empty set when p has none. live must be the
    fixpoint of step 1 over a subset of r that holds reach(p, r)."""
    witness = _greedy_installation(p, live, u)
    if not witness:
        clauses, _, ids = installation_query(p, live, u)
        result = satcore.solve_sat(clauses, num_vars=len(ids),
                                   deadline=deadline)
        if result.status is satcore.SolveStatus.TIMEOUT:
            raise satcore.SolveTimedOut(
                f"installability query for {u.order[p]} timed out")
        if result.status is not satcore.SolveStatus.SAT:
            return set()
        witness = {ids[k - 1] for k in result.true_atoms}
    return _checked(witness, p, r, u)


def installable_ids(r: set[int], u: Universe, deadline: float) -> set[int]:
    """The members of r (a set of u's ids) that are installable in r, by
    the steps of the module docstring. Packages are visited in ascending
    id order, and every installation found marks all its members."""
    live = _live(r, u)
    found: set[int] = set()
    for p in sorted(live):
        if p not in found:
            found |= _installation(p, r, live, u, deadline)
    return found


def installable_in(p: int, r: set[int], u: Universe, deadline: float) -> bool:
    """Whether p, a member of r, is installable in r: the steps of the
    module docstring over reach(p, r) alone."""
    live = _live(reach(p, r, u.deps), u)
    return p in live and bool(_installation(p, r, live, u, deadline))


def is_installable(p: Package, r: Iterable[Package], u: Universe) -> bool:
    """Whether p, a member of r, is installable in r, by ``installable_in``."""
    members = set()
    for q in r:
        i = package_id(u.order, q)
        if i is None:
            raise ValueError(f"repository references unknown package {q}")
        members.add(i)
    i = package_id(u.order, p)
    if i not in members:
        raise ValueError("need p ∈ r ⊆ packages")
    return installable_in(i, members, u, math.inf)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """A check's verdict. A failed one's subjects are ids: the uniqueness
    pair, the members that are not installable, or a broken rule's packages."""

    ok: bool
    kind: str | None = None
    detail: str = ""
    subjects: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def policy_rule_text(rule) -> str:
    """A policy group or clause as its signed literals, e.g. "+a/1 -b/2"."""
    return " ".join(f"{'+' if sign > 0 else '-'}{pkg}" for sign, pkg in rule)


def _policy_literal(token: str) -> tuple[int, Package]:
    sign = -1 if token.startswith("-") else 1
    return sign, Package.parse(token[1:] if token[:1] in ("+", "-") else token)


# A resolved policy: each rule as (is_group, its text, its signed package
# atoms), where atom i + 1 stands for the package of id i
ResolvedRules = Sequence[tuple[bool, str, tuple[int, ...]]]


@dataclass
class PolicyRules:
    """Validness rules: all-or-none groups plus raw extra clauses, both over
    signed package literals (+1 means "in T'")."""

    groups: list[list[tuple[int, Package]]] = field(default_factory=list)
    extra_clauses: list[list[tuple[int, Package]]] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str) -> PolicyRules:
        """Line-oriented policy file: `group: [+|-]name/ver ...` and
        `clause: [+|-]name/ver ...`; blank lines and '#' comments ignored."""
        rules = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, rest = line.partition(":")
            key = key.strip()
            if not sep or key not in ("group", "clause"):
                raise ValueError(f"policy line {number}: cannot parse {line!r}")
            try:
                literals = [_policy_literal(token) for token in rest.split()]
            except ValueError as exc:
                raise ValueError(f"policy line {number}: {exc}") from None
            if not literals:
                raise ValueError(f"policy line {number}: empty rule")
            (rules.groups if key == "group" else rules.extra_clauses).append(
                literals)
        return rules

    def literals(self, packages: Sequence[Package]) -> ResolvedRules:
        """Each rule, groups first, as (is_group, text, signed package
        atoms) on ``packages`` (a universe's ``order``). The one place
        where a policy's Packages become ids, each by ``package_id``; a
        package outside ``packages`` raises ``UnknownPackage``."""
        def atom(sign: int, pkg: Package) -> int:
            i = package_id(packages, pkg)
            if i is None:
                raise UnknownPackage(f"policy references unknown package {pkg}")
            return sign * (i + 1)
        return [(is_group, policy_rule_text(rule), tuple(starmap(atom, rule)))
                for is_group, rules in ((True, self.groups),
                                        (False, self.extra_clauses))
                for rule in rules]


def policy_violation(chosen: Container[int], rules: ResolvedRules
                     ) -> AdmissibilityVerdict | None:
    """The verdict on the first of the resolved rules
    (``PolicyRules.literals``) that chosen, a set of ids, breaks, or None.
    A group holds when all or none of its literals do, a clause when one
    does; the verdict's subjects are the rule's ids."""
    for is_group, text, atoms in rules:
        held = {(abs(atom) - 1 in chosen) == (atom > 0) for atom in atoms}
        if (len(held) > 1) if is_group else (True not in held):
            what = "group not all-or-none" if is_group else "clause unsatisfied"
            return AdmissibilityVerdict(False, "policy", f"{what}: {text}",
                                        tuple(abs(atom) - 1 for atom in atoms))
    return None


def is_admissible(chosen: set[int], u: Universe, rules: ResolvedRules = (),
                  deadline: float = math.inf) -> AdmissibilityVerdict:
    """Check Uniqueness, Trimmedness and the resolved policy rules
    (``PolicyRules.literals``) on a migration, a set of u's ids.

    Reports the first witnessed violation in a deterministic order. A
    trimmedness verdict's subjects are every member that is not
    installable, in sorted order; its detail names the first.
    """
    packages = u.order
    if chosen and (min(chosen) < 0 or max(chosen) >= len(packages)):
        raise ValueError("candidate repository references unknown packages")
    members = [(i, packages[i]) for i in sorted(chosen)]  # in name order
    for (a, first), (b, p) in zip(members, members[1:]):
        if first.name == p.name:
            return AdmissibilityVerdict(
                False, "uniqueness",
                f"name {p.name} occurs twice: {first} and {p}", (a, b))
    broken = tuple(sorted(chosen - installable_ids(chosen, u, deadline)))
    if broken:
        return AdmissibilityVerdict(
            False, "trimmedness", f"{packages[broken[0]]} is not installable",
            broken)
    violation = policy_violation(chosen, rules)
    return AdmissibilityVerdict(True) if violation is None else violation


def check_testing(u: Universe, deadline: float = math.inf
                  ) -> list[AdmissibilityVerdict]:
    """All uniqueness/trimmedness defects of the incoming testing repository."""
    packages, testing = u.order, u.testing_ids
    violations = []
    for name, group in groupby(sorted(testing),  # in name order
                               lambda i: packages[i].name):
        group = tuple(group)
        if len(group) > 1:
            violations.append(AdmissibilityVerdict(
                False, "uniqueness",
                f"name {name} occurs {len(group)} times in testing", group))
    for i in sorted(testing - installable_ids(testing, u, deadline)):
        violations.append(AdmissibilityVerdict(
            False, "trimmedness", f"{packages[i]} is not installable in testing",
            (i,)))
    return violations
