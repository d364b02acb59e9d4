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
installation atoms sorted by (context, member). A lazy build tracks no
context at first, and ``track_contexts`` appends a context's atoms and
clause blocks to it when a solve needs them.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import combinations, groupby, product
from typing import Callable

from . import satcore
from .closure import ClosureIndex
from .repo import Package, PolicyRules, ResolvedRules, Universe, package_id

DEFAULT_P2_BOUND = 10


class EncoderError(Exception):
    """Base class for encoding failures."""


class ConflictsPresent(EncoderError):
    """p1 requested although the universe declares conflicts."""


class UniverseTooLarge(EncoderError):
    """p2 requested beyond its configured package bound."""


class NoChangeCandidates(EncoderError):
    """The minimal-nontrivial objective needs at least one candidate."""


class NotAMigrationCandidate(EncoderError):
    """Targeted migration needs a package from unstable that is not in
    testing."""


class AtomTable:
    """Dense, deterministic bijection between atoms and 1-based indices.

    The ids are the ``ClosureIndex``'s: package atom i+1 stands for the
    index's package i.
    The installation atoms follow, sorted by (context id, member id), and
    ``contexts`` maps each context id to its {member id: atom id}. A
    context that ``track`` adds later gets the next atoms, its members in
    ascending order.
    """

    def __init__(self, idx: ClosureIndex, inst_pairs=()):
        self.packages: tuple[Package, ...] = idx.packages
        self.num_package_atoms = len(self.packages)
        self.inst_pairs: list[tuple[int, int]] = []
        self.contexts: dict[int, dict[int, int]] = {}
        self.track(sorted(inst_pairs))

    def __len__(self) -> int:
        return self.num_package_atoms + self.num_inst_atoms

    @property
    def num_inst_atoms(self) -> int:
        return len(self.inst_pairs)

    def track(self, inst_pairs: list[tuple[int, int]]):
        """Number the (context, member) pairs, in their order, from the
        next free atom on."""
        contexts = self.contexts
        for atom, (context, member) in enumerate(inst_pairs,
                                                 start=len(self) + 1):
            contexts.setdefault(context, {})[member] = atom
        self.inst_pairs += inst_pairs

    def render_map(self) -> str:
        names = list(map(str, self.packages))  # each package formatted once
        lines = [f"{i} pkg {name}\n" for i, name in enumerate(names, start=1)]
        lines += [f"{i} inst {names[member]} @ {names[context]}\n"
                  for i, (context, member) in
                  enumerate(self.inst_pairs, start=self.num_package_atoms + 1)]
        return "".join(lines)


@dataclass
class EncodedProblem:
    """Hard and soft clauses over ``atoms``, with each hard clause's
    provenance.

    A clause's provenance is read from where it sits, not stored with it.
    ``blocks`` lists each family block that ``build_encoding`` and
    ``track_contexts`` wrote straight into ``hard`` as (family, start,
    stop); ``records`` maps the position of each clause appended through
    ``add`` to its provenance.
    """

    encoding_id: str
    atoms: AtomTable
    hard: list[tuple[int, ...]] = field(default_factory=list)
    soft: list[tuple[int, ...]] = field(default_factory=list)
    blocks: list[tuple[str, int, int]] = field(default_factory=list)
    records: dict[int, tuple] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.atoms)

    @property
    def info(self) -> Provenance:
        return Provenance(self)

    def add(self, literals, info: tuple):
        clause = satcore.normalize_clause(literals)
        if clause is None:
            return
        self.records[len(self.hard)] = info
        self.hard.append(clause)

    def close_block(self, family: str, start: int):
        """Mark the clauses from ``start`` to the end of ``hard`` as a block
        of ``family``'s clauses, each already in normalize_clause's form."""
        self.blocks.append((family, start, len(self.hard)))

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for family, start, stop in self.blocks:
            if stop > start:
                counts[family] = counts.get(family, 0) + stop - start
        for family, *_ in self.records.values():
            counts[family] = counts.get(family, 0) + 1
        return counts


class Provenance(Sequence):
    """The provenance of each of a problem's hard clauses, in clause order.

    Entry i names packages by id: ("u", a, b), ("e", c, m), ("i", c),
    ("d", c, m, targets) with c None for a context that is not tracked,
    ("c", c, a, b), or the record that ``EncodedProblem.add`` kept. A
    block's clause is read back from its family and its literals: the
    package atom of id q is q + 1, and an installation atom above them is
    its (context, member) pair of ``AtomTable.inst_pairs``.
    """

    def __init__(self, problem: EncodedProblem):
        self._problem = problem

    def __len__(self) -> int:
        return len(self._problem.hard)

    def __getitem__(self, i: int) -> tuple:
        problem = self._problem
        i = range(len(problem.hard))[i]  # a negative i counts from the end
        record = problem.records.get(i)
        if record is not None:
            return record
        for family, start, stop in problem.blocks:
            if start <= i < stop:
                return _read_clause(family, problem.hard[i], problem.atoms)
        raise ValueError(f"clause {i} was appended without provenance")


def _read_clause(family: str, clause: tuple[int, ...],
                 atoms: AtomTable) -> tuple:
    """The provenance of a block's clause from its literals, which are
    sorted by variable: package atoms (1..n) before installation atoms."""
    n, pairs = atoms.num_package_atoms, atoms.inst_pairs
    if family == "u":  # two package atoms
        return ("u", -clause[0] - 1, -clause[1] - 1)
    if family == "e":  # m's package atom and -inst(c, m)
        return ("e", *pairs[-clause[1] - n - 1])
    if family == "i":  # -pkg(c) and inst(c, c)
        return ("i", -clause[0] - 1)
    if family == "c":  # -inst(c, a) and -inst(c, b), a < b
        context, a = pairs[-clause[0] - n - 1]
        return ("c", context, a, pairs[-clause[1] - n - 1][1])
    # d: the one negative literal is the head, -pkg(c) for an untracked
    # context c and -inst(c, m) for a tracked one; the others are targets
    head = -min(clause)
    context, owner = (None, head - 1) if head <= n else pairs[head - n - 1]
    targets = sorted(lit - 1 if lit <= n else pairs[lit - n - 1][1]
                     for lit in clause if lit > 0)
    return ("d", context, owner, tuple(targets))


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
    """The u block: one binary clause per unordered duplicate-name pair of
    ids, in id order: ids ascend in name order, so each name's ids are
    consecutive."""
    names = [p.name for p in problem.atoms.packages]
    start = len(problem.hard)
    for _, atoms in groupby(range(1, len(names) + 1), lambda a: names[a - 1]):
        problem.hard += [(-a, -b) for a, b in combinations(atoms, 2)]
    problem.close_block("u", start)


def policy_clauses(rules: ResolvedRules, problem: EncodedProblem):
    """The resolved rules (``repo.PolicyRules.literals``), whose package
    atoms are the problem's: all-or-none groups become implications
    between every ordered pair of literals; extra clauses pass through."""
    for is_group, text, lits in rules:
        if not is_group:
            problem.add(lits, ("v", "clause", text))
            continue
        for a, b in product(lits, repeat=2):
            if a != b:
                problem.add((-a, b), ("v", "group", text))


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
    if encoding_id == "p2" and len(u.order) > DEFAULT_P2_BOUND:
        raise UniverseTooLarge(f"{len(u.order)} packages exceed the p2 "
                               f"bound {DEFAULT_P2_BOUND}")
    return encoding_id, scheme


def _tracked_members(idx: ClosureIndex, scheme: Scheme, c: int
                     ) -> list[int] | None:
    """The members of context c under the scheme, as ascending ids, or
    None when the scheme does not track c."""
    if scheme.members is None:
        return None
    members = scheme.members(idx, c)  # [c] alone: no conflict
    if scheme.conflicting_only and members == [c]:
        return None
    return members


def build_encoding(u: Universe, idx: ClosureIndex | None, name: str,
                   rules: PolicyRules | None = None, *,
                   lazy: bool = False) -> EncodedProblem:
    """Encode u under the named scheme, after ``encoding_scheme``'s
    refusals; p2 only serves as a small-scale reference for the others.

    Clause order: uniqueness; the e, i, d and c families, each over the
    contexts in package order and the members in package order; policy.
    The policy is resolved (``repo.PolicyRules.literals``) after the
    refusals, so a refused encoding is reported before an unknown package.

    With ``lazy`` no context is tracked yet: every package gets p1-style
    dependency clauses, and ``track_contexts`` adds the contexts later.
    """
    encoding_id, scheme = encoding_scheme(u, name)
    if idx is None:
        idx = ClosureIndex(u)
    ids = range(len(idx.packages))
    inst_pairs = []
    if not lazy:
        for c in ids:
            inst_pairs += [(c, m) for m in _tracked_members(idx, scheme, c)
                           or ()]
    atoms = AtomTable(idx, inst_pairs)
    problem = EncodedProblem(encoding_id, atoms)
    uniqueness_clauses(problem)
    _context_blocks(problem, idx, scheme, atoms.contexts, ids)
    if rules is not None:
        policy_clauses(rules.literals(u.order), problem)
    return problem


def track_contexts(problem: EncodedProblem, idx: ClosureIndex,
                   contexts: Iterable[int]) -> bool:
    """Track each of the contexts (ids) as the problem's scheme does:
    append their installation atoms and then their e, i, d and c blocks.
    Their p1-style dependency clauses stay, as the tracked ones imply
    them. False, and nothing changed, when the scheme does not track one
    of them or the problem already does."""
    scheme = SCHEMES[problem.encoding_id]
    atoms = problem.atoms
    new = {}
    for c in sorted(contexts):
        members = _tracked_members(idx, scheme, c)
        if members is None or c in atoms.contexts:
            return False
        new[c] = members
    atoms.track([(c, m) for c, members in new.items() for m in members])
    _context_blocks(problem, idx, scheme,
                    {c: atoms.contexts[c] for c in new}, new)
    return True


def _context_blocks(problem: EncodedProblem, idx: ClosureIndex,
                    scheme: Scheme, contexts: dict[int, dict[int, int]],
                    owners: Iterable[int]):
    """Append one block each of e, i, d and c clauses: the e, i and c
    clauses of the tracked ``contexts`` ({context: {member: atom}}), and
    the d clauses of each of the ``owners`` (ascending ids), in its
    tracked context or, when it has none in ``contexts``, p1-style."""
    # The e, i, d and c clauses are built already in normalize_clause's
    # form: sorted by variable, and package atoms (1..n) sort before
    # installation atoms (above n). All clauses share the int objects of
    # the package atoms. Each family is one block of ``hard``, whose
    # provenance ``Provenance`` reads back from the literals.
    pkg_atom = list(range(1, len(idx.packages) + 1))
    hard = problem.hard
    start = len(hard)
    for members in contexts.values():
        for m, atom in members.items():
            hard.append((pkg_atom[m], -atom))
    problem.close_block("e", start)
    start = len(hard)
    for c, members in contexts.items():
        hard.append((-(c + 1), members[c]))
    problem.close_block("i", start)
    easy = idx.easy_ids if scheme.easy_direct else ()
    # The d family. In a tracked context, a disjunction none of whose
    # targets is tracked there (under easy_direct, easy members are not)
    # points at package atoms alone, already ascending, so -head goes last
    # and nothing is sorted; only a disjunction that mixes package and
    # installation atoms is. A d clause may have the literals of its
    # context's e clause (p4, an easy c requiring itself); the block tells
    # them apart.
    start = len(hard)
    for c in owners:
        deps = idx.deps[c]
        members = contexts.get(c)
        if members is None:
            negated = -(c + 1)
            for targets in deps:
                if c in targets:
                    continue  # c requires itself: a tautology
                lits = [pkg_atom[q] for q in targets]
                lits.insert(bisect(targets, c), negated)
                hard.append(tuple(lits))
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
    problem.close_block("d", start)
    start = len(hard)
    partners = idx.partners
    for members in contexts.values():
        for a, atom_a in members.items():
            for b in partners[a]:
                if b > a and b in members:
                    hard.append((-atom_a, -members[b]))
    problem.close_block("c", start)


# ---------------------------------------------------------------------------
# Objectives


def soft_max(u: Universe):
    """Soft units whose satisfied count is the number of changed candidates:
    one positive unit per possible migration (an unstable-only package),
    one negative per possible removal of an outdated (testing-only) one."""
    testing, unstable = u.testing_ids, u.unstable_ids
    return ([(i + 1,) for i in sorted(unstable - testing)] +
            [(-(i + 1),) for i in sorted(testing - unstable)])


def check_target(p: Package, u: Universe) -> int:
    """p's id in u; refuse a target outside u or already in testing."""
    i = package_id(u.order, p)
    if i is None:
        raise NotAMigrationCandidate(f"{p} is not in the universe")
    if i in u.testing_ids or i not in u.unstable_ids:
        raise NotAMigrationCandidate(f"{p} is not a migration candidate")
    return i


def target_clause(i: int):
    """Unit clause forcing the candidate of id i (atom i + 1) to migrate."""
    return (i + 1,), ("target", i)
