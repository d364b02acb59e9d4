"""Dependency-closure index.

Interns the packages as ids, with their dependency disjunctions as id
tuples, and precomputes the "may depend" relation, its reflexive-transitive
closure and the easy packages (whose closure touches no conflict endpoint).
The closure restricted to hard packages, the relevant conflicts and the
connecting dependencies of a package are derived from these on each call.
Downstream code speaks ids; only reports and explanations name Packages.

Closures are computed bottom-up over the condensation of the may-depend
graph into strongly connected components. Package sets are integer
bitmasks over the packages' sorted ids, except the connecting
dependencies, which their walk returns as ascending ids; the
Package-level methods expose both as frozensets. A mask is as long as
its highest id, so the closures take up to n² bits for n packages; they
are the only per-package mask family the index stores.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .repo import Package, Universe, bits


def _scc_closures(n: int, succ: list[list[int]]) -> list[int]:
    """Per-node reachability masks (reflexive) via iterative Tarjan.

    SCCs are emitted children-first, so the closure of a component is its
    own mask joined with the already-final closures of its successors.
    """
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    closures = [0] * n
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if order[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == order[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                members = set(component)
                mask = 0
                for w in component:
                    mask |= 1 << w
                closure = mask
                for w in component:
                    for x in succ[w]:
                        if x not in members:
                            closure |= closures[x]
                for w in component:
                    closures[w] = closure
    return closures


class ClosureIndex:
    """Immutable closure data for one universe.

    Packages are interned as their rank in sorted order. ``deps``,
    ``dependents``, ``conflict_pairs``, ``partners``, ``upper_partners``,
    the ``*_mask`` methods and ``connecting_ids`` speak in these ids, for
    the encoder and the installability pass of ``repo``; the Package-level
    methods translate them back. ``deps[i]`` holds i's disjunctions in the
    universe's order, each as its members' ids, ascending.
    """

    def __init__(self, universe: Universe):
        self.packages: tuple[Package, ...] = tuple(universe.sorted_packages())
        self.ids = {p: i for i, p in enumerate(self.packages)}
        ids = self.ids
        self.deps = [tuple(tuple(sorted(ids[q] for q in d))
                           for d in universe.dep.get(p, ()))
                     for p in self.packages]
        # each conflict once, as (a, b) with a < b, in sorted order
        self.conflict_pairs = sorted(
            (ids[a], ids[b]) for a, b in universe.conflicts if a < b)
        n = len(self.packages)
        succ = [sorted({q for targets in deps for q in targets})
                for deps in self.deps]
        self._succ = succ
        self._closure = _scc_closures(n, succ)
        # per package, the mask of its conflict partners; per conflict end,
        # its partners with a larger id, ascending
        self.partners = [0] * n
        self.upper_partners: dict[int, list[int]] = {}
        ends = 0
        for a, b in self.conflict_pairs:
            self.partners[a] |= 1 << b
            self.partners[b] |= 1 << a
            self.upper_partners.setdefault(a, []).append(b)
            ends |= 1 << a | 1 << b
        self.conflict_ends = ends
        easy_mask = 0
        for i in range(n):
            if not self._closure[i] & ends:
                easy_mask |= 1 << i
        self.easy_mask = easy_mask

    # -- integer surface -------------------------------------------------------

    @cached_property
    def dependents(self) -> list[list[int]]:
        """Per package, the packages that may depend on it."""
        dependents: list[list[int]] = [[] for _ in self.packages]
        for v, targets in enumerate(self._succ):
            for w in targets:
                dependents[w].append(v)
        return dependents

    def mask(self, packages: Iterable[Package]) -> int:
        """The mask of a set of packages; a package the universe lacks
        raises ValueError."""
        ids = self.ids
        buf = bytearray(len(self.packages) // 8 + 1)
        for p in packages:
            i = ids.get(p)
            if i is None:
                raise ValueError(f"repository references unknown package {p}")
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def closure_mask(self, i: int) -> int:
        return self._closure[i]

    def hard_closure_mask(self, i: int) -> int:
        """i's closure restricted to hard packages; {i} for an easy i.

        For a hard i this is also what a walk from i through hard packages
        reaches: a package on a path from i to a hard package w has w's
        closure, with its conflict end, inside its own, so it is hard too.
        """
        if self.easy_mask >> i & 1:
            return 1 << i
        return self._closure[i] & ~self.easy_mask

    def relevant_ends(self, i: int) -> int:
        """Mask of the endpoints of conflicts inside i's closure."""
        mask = self._closure[i]
        ends = 0
        for a in bits(mask & self.conflict_ends):
            if self.partners[a] & mask:
                ends |= 1 << a
        return ends

    def connecting_ids(self, i: int) -> list[int]:
        """Closure members whose own closure reaches a relevant-conflict
        endpoint, plus i itself, as ascending ids.

        Every package on a dependency path from i to such a member reaches
        the same endpoint, so a walk from i that enters only packages
        reaching an endpoint visits exactly these members.

        The list is [i] alone exactly when i's closure holds no conflict:
        otherwise a shortest path from i to an endpoint other than i leaves
        i through a successor that reaches that endpoint.
        """
        ends = self.relevant_ends(i)
        seen = {i}
        if ends:
            closures, succ = self._closure, self._succ
            todo = [i]
            while todo:
                for w in succ[todo.pop()]:
                    if w not in seen and closures[w] & ends:
                        seen.add(w)
                        todo.append(w)
        return sorted(seen)

    # -- package surface -------------------------------------------------------

    def _packages(self, ids: Iterable[int]) -> frozenset[Package]:
        return frozenset(self.packages[i] for i in ids)

    @property
    def easy(self) -> frozenset[Package]:
        return self._packages(bits(self.easy_mask))

    def relevant_conflicts(self, p: Package) -> frozenset[tuple[Package, Package]]:
        """Conflicts with both endpoints inside p's dependency closure."""
        mask = self._closure[self.ids[p]]
        pkgs = self.packages
        return frozenset(pair for a, b in self.conflict_pairs
                         if mask >> a & 1 and mask >> b & 1
                         for pair in ((pkgs[a], pkgs[b]), (pkgs[b], pkgs[a])))

    def connecting(self, p: Package) -> frozenset[Package]:
        """Closure members whose own closure reaches a relevant-conflict
        endpoint, plus p itself."""
        return self._packages(self.connecting_ids(self.ids[p]))
