"""Reference repository model for the answer checks.

It is built from the generator's own records, not from the Packages text,
and shares no code with satmigrate: relations are expanded here, and
installability is decided by a complete backtracking search. A package id
is ``(name, rank)``.
"""

from __future__ import annotations

import sys

PkgId = tuple[str, int]

SEARCH_NODE_LIMIT = 200_000


class Undecided(Exception):
    """The installability search ran out of its node budget."""


class Model:
    def __init__(self, testing, unstable):
        stanzas = {}
        for s in list(testing) + list(unstable):
            stanzas[(s.name, s.rank)] = s
        self.packages: list[PkgId] = sorted(stanzas)
        self.testing: list[PkgId] = sorted({(s.name, s.rank) for s in testing})
        self.unstable: list[PkgId] = sorted({(s.name, s.rank) for s in unstable})
        by_name: dict[str, list[PkgId]] = {}
        providers: dict[str, list[PkgId]] = {}
        for pid, s in stanzas.items():
            by_name.setdefault(s.name, []).append(pid)
            for v in s.provides:
                providers.setdefault(v, []).append(pid)

        def expand(rel) -> set[PkgId]:
            name, op, rank = rel
            real = by_name.get(name, [])
            if op == "":
                return set(real) | set(providers.get(name, ()))
            if op == ">=":
                return {p for p in real if p[1] >= rank}
            if op == "<<":
                return {p for p in real if p[1] < rank}
            raise ValueError(f"unknown relation {op!r}")

        self.deps: dict[PkgId, list[frozenset[PkgId]]] = {}
        conflicts: dict[PkgId, set[PkgId]] = {p: set() for p in self.packages}
        for pid, s in stanzas.items():
            self.deps[pid] = [frozenset().union(*(expand(a) for a in group))
                              for group in s.depends]
            for rel in s.conflicts + s.breaks:
                for q in expand(rel):
                    if q != pid:
                        conflicts[pid].add(q)
                        conflicts[q].add(pid)
        self.conflicts = {p: frozenset(v) for p, v in conflicts.items()}

    def closure(self, p: PkgId) -> set[PkgId]:
        seen = {p}
        stack = [p]
        while stack:
            for group in self.deps[stack.pop()]:
                for q in group:
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
        return seen

    def installable(self, p: PkgId, repo: set[PkgId]) -> bool:
        """Whether some conflict-free, dependency-closed subset of ``repo``
        contains ``p``, by a complete backtracking search."""
        if p not in repo:
            return False
        budget = [SEARCH_NODE_LIMIT]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            return self._search({p}, set(self.conflicts[p]), list(self.deps[p]),
                                repo, budget)
        finally:
            sys.setrecursionlimit(limit)

    def _search(self, chosen, banned, pending, repo, budget) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise Undecided("installability search exceeded its node budget")
        while pending and pending[-1] & chosen:
            pending.pop()
        if not pending:
            return True
        group = pending[-1]
        for q in sorted(group):
            if q not in repo or q in banned:
                continue
            if self._search(chosen | {q}, banned | self.conflicts[q],
                            pending[:-1] + self.deps[q], repo, budget):
                return True
        return False

    def admissible(self, t_prime) -> tuple[bool, str]:
        """Uniqueness and trimmedness of a candidate testing repository."""
        repo = set(t_prime)
        unknown = repo - set(self.packages)
        if unknown:
            return False, f"unknown packages {sorted(unknown)[:3]}"
        names: dict[str, PkgId] = {}
        for p in sorted(repo):
            if p[0] in names:
                return False, f"name {p[0]} occurs twice"
            names[p[0]] = p
        for p in sorted(repo):
            if not self.installable(p, repo):
                return False, f"{p[0]} (rank {p[1]}) is not installable"
        return True, ""
