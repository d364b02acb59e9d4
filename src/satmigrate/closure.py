"""Dependency-closure index.

Interns the packages as ids, with their dependency disjunctions as id
tuples, and precomputes the "may depend" relation, its reflexive-transitive
closure, the conflict partners of each package and, per closure, the
conflict ends inside it. The easy packages (whose closure holds no
conflict end), the closure restricted to hard packages, the relevant
conflict ends and the connecting dependencies of a package are derived
from these. Downstream code speaks ids; only reports and explanations
name Packages.

Closures are computed bottom-up over the condensation of the may-depend
graph into strongly connected components. Each closure is a tuple of ids
in no particular order, and every member of one component shares its
component's tuple, and its frozenset of conflict ends; callers that read
an order sort. The closures take memory in proportion to the sum of
their sizes, so the index grows with the archive rather than with its
square.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .repo import Package, Universe

# one empty set, shared by every closure that holds no conflict end
_NO_ENDS: frozenset[int] = frozenset()


def _scc_closures(succ: list[list[int]], conflict_ends: frozenset[int]
                  ) -> tuple[list[tuple[int, ...]], list[frozenset[int]]]:
    """Per-node reachability tuples (reflexive), and the conflict ends
    inside each, via iterative Tarjan.

    SCCs are emitted children-first, so the closure of a component is its
    own members joined with the already-final closures of its successors.
    A successor already inside adds nothing: its closure is inside too.
    """
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    closures: list[tuple[int, ...]] = [()] * n
    ends: list[frozenset[int]] = [_NO_ENDS] * n
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
                for w in component:
                    for x in succ[w]:
                        if x not in members:
                            members.update(closures[x])
                closure = tuple(members)
                closure_ends = conflict_ends.intersection(members) or _NO_ENDS
                for w in component:
                    closures[w] = closure
                    ends[w] = closure_ends
    return closures, ends


class ClosureIndex:
    """Immutable closure data for one universe.

    Packages are interned as their rank in sorted order. ``deps``,
    ``dependents``, ``conflict_pairs``, ``partners``, ``closure_ends``
    and the id-valued methods speak in these ids, for the encoder and the
    installability pass of ``repo``; the Package-level members translate
    them back. ``deps[i]`` holds i's disjunctions in the universe's order,
    each as its members' ids, ascending. ``partners[i]`` holds i's
    conflict partners, ascending, and ``closure_ends[i]`` the conflict
    ends inside i's closure.
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
        partners: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.conflict_pairs:
            partners[a].append(b)
            partners[b].append(a)
        self.partners = [tuple(sorted(ps)) for ps in partners]
        self._succ = [sorted({q for targets in deps for q in targets})
                      for deps in self.deps]
        self._closure, self.closure_ends = _scc_closures(
            self._succ, frozenset(i for i in range(n) if self.partners[i]))
        self.easy_ids = frozenset(i for i in range(n)
                                  if not self.closure_ends[i])

    # -- integer surface -------------------------------------------------------

    @cached_property
    def dependents(self) -> list[list[int]]:
        """Per package, the packages that may depend on it."""
        dependents: list[list[int]] = [[] for _ in self.packages]
        for v, targets in enumerate(self._succ):
            for w in targets:
                dependents[w].append(v)
        return dependents

    def id_set(self, packages: Iterable[Package]) -> set[int]:
        """The ids of a set of packages; a package the universe lacks
        raises ValueError."""
        ids = self.ids
        try:
            return {ids[p] for p in packages}
        except KeyError as exc:
            raise ValueError(
                f"repository references unknown package {exc.args[0]}") from None

    def closure(self, i: int) -> tuple[int, ...]:
        """i's closure, i included, in no particular order."""
        return self._closure[i]

    def hard_closure(self, i: int) -> tuple[int, ...]:
        """i's closure restricted to hard packages; (i,) for an easy i.

        For a hard i this is also what a walk from i through hard packages
        reaches: a package on a path from i to a hard package w has w's
        closure, with its conflict end, inside its own, so it is hard too.
        """
        ends = self.closure_ends
        if not ends[i]:
            return (i,)
        return tuple(q for q in self._closure[i] if ends[q])

    def relevant_ends(self, i: int) -> frozenset[int]:
        """The endpoints of conflicts with both ends inside i's closure."""
        ends, partners = self.closure_ends[i], self.partners
        return frozenset(a for a in ends if not ends.isdisjoint(partners[a]))

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
        relevant = self.relevant_ends(i)
        seen = {i}
        if relevant:
            ends, succ = self.closure_ends, self._succ
            todo = [i]
            while todo:
                for w in succ[todo.pop()]:
                    if w not in seen and not relevant.isdisjoint(ends[w]):
                        seen.add(w)
                        todo.append(w)
        return sorted(seen)

    # -- package surface -------------------------------------------------------

    @property
    def easy(self) -> frozenset[Package]:
        return frozenset(self.packages[i] for i in self.easy_ids)

    def connecting(self, p: Package) -> frozenset[Package]:
        """Closure members whose own closure reaches a relevant-conflict
        endpoint, plus p itself."""
        return frozenset(self.packages[i]
                         for i in self.connecting_ids(self.ids[p]))
