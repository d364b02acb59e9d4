"""Seeded random generators, and Package-level views of a ClosureIndex,
shared across the test suite."""

from __future__ import annotations

import random

from satmigrate.closure import ClosureIndex
from satmigrate.encoder import AtomTable
from satmigrate.repo import Package, Universe, make_universe, package_id
from satmigrate.satcore import DpllSolver, SolveStatus


def P(spec: str) -> Package:
    return Package.parse(spec)


def id_set(u: Universe, packages) -> set[int]:
    """The ids of Packages of u, each found by ``repo.package_id``."""
    ids = {package_id(u.order, p) for p in packages}
    assert None not in ids, "a package outside the universe"
    return ids


def pkg_atom(atoms: AtomTable, p: Package) -> int:
    """p's package atom in an encoding's atom table: its id, plus one."""
    return package_id(atoms.packages, p) + 1


def may_dep(idx: ClosureIndex, p: Package) -> frozenset[Package]:
    """The members of p's dependency disjunctions."""
    return frozenset(idx.packages[q]
                     for targets in idx.deps[package_id(idx.packages, p)]
                     for q in targets)


def _members(idx: ClosureIndex, ids) -> frozenset[Package]:
    return frozenset(idx.packages[i] for i in ids)


def closure(idx: ClosureIndex, p: Package) -> frozenset[Package]:
    return _members(idx, idx.closure(package_id(idx.packages, p)))


def hard_closure(idx: ClosureIndex, p: Package) -> frozenset[Package]:
    return _members(idx, idx.hard_closure(package_id(idx.packages, p)))


def is_easy(idx: ClosureIndex, p: Package) -> bool:
    return package_id(idx.packages, p) in idx.easy_ids


def relevant_conflicts(idx: ClosureIndex, p: Package
                       ) -> frozenset[tuple[Package, Package]]:
    """Conflicts with both endpoints inside p's dependency closure."""
    inside = set(idx.closure(package_id(idx.packages, p)))
    pkgs = idx.packages
    return frozenset((pkgs[a], pkgs[b]) for a in inside
                     for b in idx.partners[a] if b in inside)


class _Unread:
    """A closure table that no reader may touch."""

    def __getitem__(self, i):
        raise AssertionError("a closure table was read")


def forbid_closures(monkeypatch) -> None:
    """Make every ClosureIndex built from now on fail on a read of its
    closures (a ``closure`` or ``hard_closure`` call) or of its
    ``closure_ends``. The connecting lists, which the p5 encodings read,
    and ``easy_ids``, which p4 reads, are built from ``closure_ends``
    before it goes."""
    original = ClosureIndex.__init__

    def init(self, universe):
        original(self, universe)
        if self.packages:
            self.connecting_ids(0)  # builds every connecting list
        self.easy_ids  # built while closure_ends can still be read
        self._closures = self.closure_ends = _Unread()

    monkeypatch.setattr(ClosureIndex, "__init__", init)


def tiny_universe(pkgs, dep=None, conflicts=(), testing=None, unstable=None):
    """Compact universe builder for fixtures: packages as "name/version"
    strings, dep as {owner: [[alt, ...], ...]}. Membership defaults to
    every package being in both repositories."""
    packages = [P(s) for s in pkgs]
    dep_map = {P(k): [[P(x) for x in d] for d in v]
               for k, v in (dep or {}).items()}
    pairs = [(P(a), P(b)) for a, b in conflicts]
    t = [P(s) for s in testing] if testing is not None else packages
    u = [P(s) for s in unstable] if unstable is not None else packages
    return make_universe(packages, dep_map, pairs, t, u)


def random_version(rng: random.Random) -> str:
    alphabet = "0123456789abcz.+~"

    def seg() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))

    version = seg()
    if rng.random() < 0.3:
        version = f"{rng.randint(0, 3)}:{version}"
    if rng.random() < 0.4:
        if rng.random() < 0.3:
            version += "-" + seg()  # upstream keeps earlier '-' on rsplit
        version += "-" + seg()
    return version


def random_universe(rng: random.Random, size: int | None = None,
                    max_size: int = 10, dep_density: float = 0.5,
                    conflict_density: float = 0.3,
                    empty_dep_prob: float = 0.05) -> Universe:
    """A small universe with duplicate names, random expanded dependencies
    (never self-referential) and random symmetric conflicts."""
    if size is None:
        size = rng.randint(1, max_size)
    num_names = max(1, size - rng.randint(0, size // 2))
    names = [f"p{i}" for i in range(num_names)]
    counts: dict[str, int] = {}
    pkgs = []
    for _ in range(size):
        name = rng.choice(names)
        counts[name] = counts.get(name, 0) + 1
        pkgs.append(Package(name, str(counts[name])))
    pkgs.sort()
    dep = {}
    for p in pkgs:
        others = [q for q in pkgs if q != p]
        groups = []
        while rng.random() < dep_density and len(groups) < 3:
            if others and rng.random() >= empty_dep_prob:
                groups.append(rng.sample(others, rng.randint(1, min(3, len(others)))))
            else:
                groups.append([])
        dep[p] = groups
    conflicts = []
    for i, a in enumerate(pkgs):
        for b in pkgs[i + 1:]:
            if rng.random() < conflict_density / max(1, len(pkgs) - 1):
                conflicts.append((a, b))
    testing, unstable = [], []
    for p in pkgs:
        draw = rng.random()
        if draw < 0.4:
            testing.append(p)
        elif draw < 0.8:
            unstable.append(p)
        else:
            testing.append(p)
            unstable.append(p)
    return make_universe(pkgs, dep, conflicts, testing, unstable)


def clustered_universe(rng: random.Random, size: int, conflicts: int,
                       cluster: int = 12, base: int = 6,
                       empty_dep_prob: float = 0.02) -> Universe:
    """A mid-scale universe of clusters of ``cluster`` packages. Each
    package has up to three disjunctions of one to three packages of its
    own cluster (in either direction, so dependency cycles form), or now
    and then of the first ``base`` packages, which every cluster shares;
    a few disjunctions are empty. ``conflicts`` random pairs join packages
    of one cluster. Some names have two versions, and about a fifth of
    the packages are missing from testing."""
    pkgs = []
    for i in range(size):
        name = f"n{i // 2}" if rng.random() < 0.2 else f"m{i}"
        pkgs.append(Package(name, str(i)))

    def cluster_of(i: int) -> range:
        start = i - i % cluster
        return range(start, min(size, start + cluster))

    dep = {}
    for i, p in enumerate(pkgs):
        groups = []
        while rng.random() < 0.6 and len(groups) < 3:
            if rng.random() < empty_dep_prob:
                groups.append([])
                continue
            pool = range(min(base, size)) if rng.random() < 0.2 else cluster_of(i)
            pool = [pkgs[j] for j in pool if j != i]
            if pool:
                groups.append(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        dep[p] = groups
    pairs = set()
    while len(pairs) < conflicts:
        i = rng.randrange(size)
        j = rng.choice(cluster_of(i))
        if i != j:
            pairs.add((pkgs[min(i, j)], pkgs[max(i, j)]))
    testing = [p for p in pkgs if rng.random() < 0.8]
    return make_universe(pkgs, dep, sorted(pairs), testing, pkgs)


def random_instance(rng: random.Random, max_vars: int = 16,
                    max_clauses: int = 60):
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return num_vars, clauses


def projected_solutions(problem, universe: Universe) -> set[int]:
    """All candidate repositories (as bitmasks over the sorted packages)
    whose package-atom assignment extends to a solution of the encoding."""
    pkgs = list(universe.order)
    atoms = problem.atoms
    solver = DpllSolver(problem.num_vars, problem.hard)
    found = set()
    for mask in range(1 << len(pkgs)):
        assumptions = [pkg_atom(atoms, p) if mask >> i & 1
                       else -pkg_atom(atoms, p) for i, p in enumerate(pkgs)]
        result = solver.solve(assumptions=assumptions)
        if result.status is SolveStatus.SAT:
            found.add(mask)
    return found


def brute_best_measure(universe: Universe, masks: list[int],
                       pkgs: list[Package]):
    """Per-mask operational migration measure (changed candidates), plus
    the candidate index sets, for optimality cross-checks."""
    incoming = [i for i, p in enumerate(pkgs)
                if p in universe.unstable and p not in universe.testing]
    outgoing = [i for i, p in enumerate(pkgs)
                if p in universe.testing and p not in universe.unstable]
    measures = {}
    for mask in masks:
        measure = sum(1 for i in incoming if mask >> i & 1)
        measure += sum(1 for i in outgoing if not mask >> i & 1)
        measures[mask] = measure
    return measures, incoming, outgoing


def with_dead_ends(u, tops: int, blocked: int = 0):
    """u plus q, r, s and t, where s needs t, which conflicts with q, and
    ``tops`` packages that need s and then q or r: greedy dead ends that
    SAT proves installable. None of u's packages reaches them.
    ``blocked`` more tops need s2, which needs t2, and q or r, both of
    which conflict with t2: greedy dead ends with no installation."""
    names = ["q/1", "r/1", "s/1", "t/1"] + [f"top{k}/1" for k in range(tops)]
    dep = {"s/1": [["t/1"]],
           **{f"top{k}/1": [["s/1"], ["q/1", "r/1"]] for k in range(tops)}}
    conflicts = [("q/1", "t/1")]
    if blocked:
        names += ["s2/1", "t2/1"] + [f"blocked{k}/1" for k in range(blocked)]
        dep.update({"s2/1": [["t2/1"]],
                    **{f"blocked{k}/1": [["s2/1"], ["q/1", "r/1"]]
                       for k in range(blocked)}})
        conflicts += [("q/1", "t2/1"), ("r/1", "t2/1")]
    planted = tiny_universe(names, dep=dep, conflicts=conflicts)
    return make_universe(u.packages | planted.packages,
                         {**u.dep, **planted.dep},
                         u.conflicts | planted.conflicts,
                         u.testing | planted.testing,
                         u.unstable | planted.unstable)
