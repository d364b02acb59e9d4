"""Clause systems for the migration problem.

Every encoding shares the uniqueness clauses (one per duplicate-name pair)
and the pluggable policy clauses. The encodings differ only in which
installation contexts they track and in each context's member set; one
generator emits the e, i, d and c families for the entry of SCHEMES:

* p1        — packages only; sound exactly when there are no conflicts.
* p2        — installation atoms for every package pair; the tiny-scale
              reference semantics, quadratic and capped by default.
* p3        — installation atoms restricted to dependency closures.
* p4        — closures further restricted to hard packages; dependencies on
              easy packages point at package atoms directly.
* p5        — installation atoms only for connecting dependencies; strict
              mode keeps every seed atom p@p, pruned mode drops contexts
              without relevant conflicts and encodes them p1-style.

Atoms are numbered deterministically: package atoms first (sorted), then
installation atoms sorted by (context, member).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from . import satcore
from .closure import ClosureIndex
from .repo import Package, Universe, policy_rule_text

DEFAULT_P2_BOUND = 10


class EncoderError(Exception):
    """Base class for encoding failures."""


class ConflictsPresent(EncoderError):
    """p1 requested although the universe declares conflicts."""


class UniverseTooLarge(EncoderError):
    """p2 requested beyond its configured package bound."""


class UnknownPackage(EncoderError):
    """A policy rule references a package outside the universe."""


class NoChangeCandidates(EncoderError):
    """The minimal-nontrivial objective needs at least one candidate."""


class NotAMigrationCandidate(EncoderError):
    """Targeted migration needs a package from unstable that is not in
    testing."""


class AtomTable:
    """Dense, deterministic bijection between atoms and 1-based indices.

    The ids are the ``ClosureIndex``'s, and ``pkg`` reads them from the
    index's own table: package atom i+1 stands for the index's package i.
    The installation atoms follow, sorted by (context id, member id), and
    ``contexts`` maps each context id to its {member id: atom id}.
    """

    def __init__(self, idx: ClosureIndex, inst_pairs=()):
        self.packages: tuple[Package, ...] = idx.packages
        self._ids = idx.ids
        self.num_package_atoms = len(self.packages)
        self.inst_pairs: list[tuple[int, int]] = sorted(inst_pairs)
        self.num_inst_atoms = len(self.inst_pairs)
        self.contexts: dict[int, dict[int, int]] = {}
        for atom, (context, member) in enumerate(
                self.inst_pairs, start=self.num_package_atoms + 1):
            self.contexts.setdefault(context, {})[member] = atom

    def __len__(self) -> int:
        return self.num_package_atoms + self.num_inst_atoms

    def pkg(self, p: Package) -> int:
        return self._ids[p] + 1

    def render_map(self) -> str:
        names = list(map(str, self.packages))  # each package formatted once
        lines = [f"{i} pkg {name}\n" for i, name in enumerate(names, start=1)]
        lines += [f"{i} inst {names[member]} @ {names[context]}\n"
                  for i, (context, member) in
                  enumerate(self.inst_pairs, start=self.num_package_atoms + 1)]
        return "".join(lines)


@dataclass
class PolicyRules:
    """Validness rules: all-or-none groups plus raw extra clauses, both over
    signed package literals (+1 means "in T'")."""

    groups: list[list[tuple[int, Package]]] = field(default_factory=list)
    extra_clauses: list[list[tuple[int, Package]]] = field(default_factory=list)

    def referenced(self):
        for group in self.groups:
            yield from (pkg for _, pkg in group)
        for clause in self.extra_clauses:
            yield from (pkg for _, pkg in clause)


@dataclass
class EncodedProblem:
    encoding_id: str
    atoms: AtomTable
    hard: list[tuple[int, ...]] = field(default_factory=list)
    info: list[tuple] = field(default_factory=list)
    soft: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.atoms)

    def add(self, literals, info: tuple):
        clause = satcore.normalize_clause(literals)
        if clause is None:
            return
        self.hard.append(clause)
        self.info.append(info)

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for info in self.info:
            counts[info[0]] = counts.get(info[0], 0) + 1
        return counts


@dataclass
class InstanceStats:
    encoding_id: str
    atoms_total: int
    package_atoms: int
    inst_atoms: int
    hard_clauses: int
    soft_clauses: int
    by_family: dict[str, int]


def instance_stats(problem: EncodedProblem) -> InstanceStats:
    return InstanceStats(
        encoding_id=problem.encoding_id,
        atoms_total=problem.num_vars,
        package_atoms=problem.atoms.num_package_atoms,
        inst_atoms=problem.atoms.num_inst_atoms,
        hard_clauses=len(problem.hard),
        soft_clauses=len(problem.soft),
        by_family=problem.family_counts(),
    )


# ---------------------------------------------------------------------------
# Shared clause families


def uniqueness_clauses(problem: EncodedProblem):
    """One binary clause per unordered duplicate-name pair of ids, in id
    order: ids ascend in name order, so each name's ids are consecutive."""
    by_name: dict[str, list[int]] = {}
    for i, p in enumerate(problem.atoms.packages):
        by_name.setdefault(p.name, []).append(i)
    for group in by_name.values():
        for a, b in combinations(group, 2):
            problem.add((-(a + 1), -(b + 1)), ("u", a, b))


def policy_clauses(rules: PolicyRules, u: Universe, problem: EncodedProblem):
    """All-or-none groups become implications between every ordered pair of
    literals; extra clauses pass through."""
    for pkg in rules.referenced():
        if pkg not in u.packages:
            raise UnknownPackage(f"policy references unknown package {pkg}")

    def lit(sign: int, pkg: Package) -> int:
        return sign * problem.atoms.pkg(pkg)

    for group in rules.groups:
        desc = policy_rule_text(group)
        for si, pi in group:
            for sj, pj in group:
                if (si, pi) != (sj, pj):
                    problem.add((-lit(si, pi), lit(sj, pj)), ("v", "group", desc))
    for clause in rules.extra_clauses:
        desc = policy_rule_text(clause)
        problem.add(tuple(lit(s, p) for s, p in clause), ("v", "clause", desc))


# ---------------------------------------------------------------------------
# Encodings


def _everything(idx: ClosureIndex, context: int) -> list[int]:
    return list(range(len(idx.packages)))


def _closure(idx: ClosureIndex, context: int) -> list[int]:
    return sorted(idx.closure(context))


def _hard_closure(idx: ClosureIndex, context: int) -> list[int]:
    return sorted(idx.hard_closure(context))


@dataclass(frozen=True)
class Scheme:
    """How one named encoding tracks installation contexts.

    ``members(idx, c)`` lists, as ascending ids, the packages that get an
    installation atom in context c; None tracks no context (p1). With
    ``conflicting_only`` a context is tracked only when its closure holds a
    conflict, and an untracked one gets p1-style dependency clauses. A
    dependency target points at its installation atom when it is a member,
    unless ``easy_direct`` sends easy targets to their package atom: p4
    does so even when the target is the context itself.
    """

    members: Callable[[ClosureIndex, int], list[int]] | None
    conflicting_only: bool = False
    easy_direct: bool = False


SCHEMES = {
    "p1": Scheme(None),
    "p2": Scheme(_everything),
    "p3": Scheme(_closure),
    "p4": Scheme(_hard_closure, easy_direct=True),
    "p5-strict": Scheme(ClosureIndex.connecting_ids),
    "p5-pruned": Scheme(ClosureIndex.connecting_ids, conflicting_only=True),
}
ALIASES = {"p2-oracle": "p2", "p5": "p5-pruned"}


def encoding_scheme(u: Universe, name: str) -> tuple[str, Scheme]:
    """The id and the scheme of the named encoding ("p5" means p5-pruned),
    once u passes its refusals: p1 refuses a universe with conflicts, and
    p2, whose size is quadratic in the universe, one above
    DEFAULT_P2_BOUND packages."""
    encoding_id = ALIASES.get(name, name)
    scheme = SCHEMES.get(encoding_id)
    if scheme is None:
        raise ValueError(f"unknown encoding {name!r}")
    if scheme.members is None and u.conflict_pairs:
        raise ConflictsPresent("p1 requires a conflict-free universe")
    if encoding_id == "p2" and len(u.packages) > DEFAULT_P2_BOUND:
        raise UniverseTooLarge(f"{len(u.packages)} packages exceed the p2 "
                               f"bound {DEFAULT_P2_BOUND}")
    return encoding_id, scheme


def build_encoding(u: Universe, idx: ClosureIndex | None, name: str,
                   rules: PolicyRules | None = None) -> EncodedProblem:
    """Encode u under the named scheme, after ``encoding_scheme``'s
    refusals; p2 only serves as a small-scale reference for the others.

    Clause order: uniqueness; the e, i, d and c families, each over the
    contexts in package order and the members in package order; policy.
    """
    encoding_id, scheme = encoding_scheme(u, name)
    if idx is None:
        idx = ClosureIndex(u)
    pkgs = idx.packages
    inst_pairs = []
    if scheme.members is not None:
        for c in range(len(pkgs)):
            members = scheme.members(idx, c)  # [c] alone: no conflict
            if not scheme.conflicting_only or members != [c]:
                inst_pairs += [(c, m) for m in members]
    atoms = AtomTable(idx, inst_pairs)
    contexts = atoms.contexts  # the tracked contexts, each with its members
    problem = EncodedProblem(encoding_id, atoms)
    uniqueness_clauses(problem)
    # The e, i, d and c clauses are built already in normalize_clause's
    # form: sorted by variable, and package atoms (1..n) sort before
    # installation atoms (above n). All clauses share the int objects of
    # the package atoms, and each d provenance its ``deps`` tuple.
    pkg_atom = list(range(1, len(pkgs) + 1))
    hard, info = problem.hard, problem.info
    for c, members in contexts.items():
        for m, atom in members.items():
            hard.append((pkg_atom[m], -atom))
            info.append(("e", c, m))
    for c, members in contexts.items():
        hard.append((-(c + 1), members[c]))
        info.append(("i", c))
    easy = idx.easy_ids if scheme.easy_direct else ()
    # The d family. In a tracked context, a disjunction none of whose
    # targets is tracked there (under easy_direct, easy members are not)
    # points at package atoms alone, already ascending, so -head goes last
    # and nothing is sorted; only a disjunction that mixes package and
    # installation atoms is.
    for c, deps in enumerate(idx.deps):
        members = contexts.get(c)
        if members is None:
            negated = -(c + 1)
            for targets in deps:
                if c in targets:
                    continue  # c requires itself: a tautology
                lits = [pkg_atom[q] for q in targets]
                lits.insert(bisect(targets, c), negated)
                hard.append(tuple(lits))
                info.append(("d", None, c, targets))
            continue
        local = {m: atom for m, atom in members.items() if m not in easy} \
            if easy else members
        tracked = local.keys()
        for m, head in members.items():
            negated = -head  # one int object for all of m's clauses
            for targets in idx.deps[m]:
                if tracked.isdisjoint(targets):
                    lits = [pkg_atom[q] for q in targets]
                    lits.append(negated)
                else:
                    # package atoms ascending, then installation atoms
                    # ascending
                    lits = sorted([local.get(q) or pkg_atom[q] for q in targets])
                    if head in lits:
                        continue  # m requires itself inside c: a tautology
                    lits.insert(bisect(lits, head), negated)
                hard.append(tuple(lits))
                info.append(("d", c, m, targets))
    partners = idx.partners
    for c, members in contexts.items():
        for a, atom_a in members.items():
            for b in partners[a]:
                if b > a and b in members:
                    hard.append((-atom_a, -members[b]))
                    info.append(("c", c, a, b))
    if rules is not None:
        policy_clauses(rules, u, problem)
    return problem


# ---------------------------------------------------------------------------
# Objectives


def migration_candidates(u: Universe) -> tuple[list[Package], list[Package]]:
    """(incoming, outgoing): unstable-only and testing-only packages."""
    return sorted(u.unstable - u.testing), sorted(u.testing - u.unstable)


def soft_max(u: Universe, atoms: AtomTable):
    """Soft units whose satisfied count is the number of changed candidates:
    one positive unit per possible migration, one negative per possible
    removal of an outdated package."""
    incoming, outgoing = migration_candidates(u)
    return ([(atoms.pkg(p),) for p in incoming] +
            [(-atoms.pkg(p),) for p in outgoing])


def soft_min_units(u: Universe, atoms: AtomTable):
    """soft_max's units inverted."""
    return [(-lit,) for lit, in soft_max(u, atoms)]


def soft_min_with_nontriviality(u: Universe, atoms: AtomTable):
    """Inverted soft units plus the hard clause forcing some change."""
    units = soft_max(u, atoms)
    if not units:
        raise NoChangeCandidates("testing and unstable offer no change")
    nontrivial = satcore.normalize_clause(lit for lit, in units)
    return (nontrivial, ("nt",)), [(-lit,) for lit, in units]


def target_clause(p: Package, u: Universe, atoms: AtomTable):
    """Unit clause forcing one candidate into the migration."""
    if p not in u.packages:
        raise NotAMigrationCandidate(f"{p} is not in the universe")
    if p not in u.unstable - u.testing:
        raise NotAMigrationCandidate(f"{p} is not a migration candidate")
    atom = atoms.pkg(p)  # the atom of id i is i + 1
    return (atom,), ("target", atom - 1)
