"""Dependency-closure index: preprocessing for the encoder and ``stats``
only.

Reads the ids and id tables that ``repo.build_universe`` interned, and
derives the "may depend" relation and, per package, the conflict ends
inside its reflexive-transitive closure. The easy packages (whose
closure holds no conflict end), the closure restricted to hard packages,
the relevant conflict ends and the connecting dependencies of a package
are derived from these. ``repo``'s checks never read an index: they
verify its users' answers on the universe alone. Downstream code speaks
ids; only reports and explanations name Packages.

Building an index builds no table; it keeps the universe's ``packages``,
``deps`` and ``partners`` as they are. Everything
else is built on first read, once, and kept: the successors, their
strongly connected components, ``closure_ends`` and ``easy_ids`` by the
first read of the conflict ends (the p4 and p5 encodings, ``stats``);
the closure tuples by the first ``closure`` or ``hard_closure`` call
(``stats``, the p3 and p4 encodings); the connecting lists by the first
``connecting_ids`` call. So a ``migrate`` that tracks no context walks
no component.

Both the conflict ends and the closures are computed bottom-up over the
condensation of the may-depend graph into strongly connected components,
which the index finds once. Each closure is a tuple of ids in no
particular order, and every member of one component shares its
component's tuple, and its frozenset of conflict ends; callers that read
an order sort. The closures take memory in proportion to the sum of
their sizes, so the index grows with the archive rather than with its
square.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .repo import Package, Universe, package_id

# one empty set, shared by every closure that holds no conflict end
_NO_ENDS: frozenset[int] = frozenset()


def _components(succ: list[list[int]]) -> list[list[int]]:
    """The strongly connected components of the graph, children first
    (every successor of a member lies in the same or an earlier one), via
    iterative Tarjan."""
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
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
                    components.append(component)
    return components


def _scc_ends(succ: list[list[int]], components: list[list[int]],
              conflict_ends: frozenset[int]) -> list[frozenset[int]]:
    """Per node, the conflict ends inside its closure.

    Components come children first, so a component's set is its own
    conflict ends joined with the already-final sets of its successors;
    the members' own entries are still empty, and a set of the non-empty
    ones drops repeats. A component with no conflict end of its own and
    one distinct set below shares that set, so the sets are shared along
    chains as well as within components. Most components are single
    packages, which take a shorter way to the same sets.
    """
    ends: list[frozenset[int]] = [_NO_ENDS] * len(succ)
    ends_of = ends.__getitem__
    for component in components:
        if len(component) == 1:
            v = component[0]
            below = set(map(ends_of, succ[v]))
            own = (v,) if v in conflict_ends else ()
        else:
            below = set(map(ends_of, chain.from_iterable(
                map(succ.__getitem__, component))))
            own = conflict_ends.intersection(component)
        below.discard(_NO_ENDS)
        if own or len(below) > 1:
            closure_ends = frozenset(own).union(*below)
        else:
            closure_ends = below.pop() if below else _NO_ENDS
        for w in component:
            ends[w] = closure_ends
    return ends


def _scc_closures(succ: list[list[int]], components: list[list[int]]
                  ) -> list[tuple[int, ...]]:
    """Per node, its reachability tuple (reflexive).

    Components come children first, so the closure of a component is its
    own members joined with the already-final closures of its successors
    outside it, in one C-level union. A one-member component with one
    successor outside has that successor's closure with itself in front,
    since the closure cannot hold it: it would be on a cycle with the
    successor.
    """
    closures: list[tuple[int, ...]] = [()] * len(succ)
    for component in components:
        # the members' own closures are still ()
        outside = [x for w in component for x in succ[w] if closures[x]]
        if len(component) == 1 and len(outside) <= 1:
            closure = (component[0],) + (closures[outside[0]] if outside else ())
        else:
            closure = tuple(set(component).union(
                *[closures[x] for x in outside]))
        for w in component:
            closures[w] = closure
    return closures


class ClosureIndex:
    """Immutable closure data for one universe, for the encoder and
    ``stats`` only.

    The ids, ``packages``, ``deps`` and ``partners`` are the universe's
    own (the same objects): a package's id is its rank in sorted order,
    ``deps[i]`` holds i's disjunctions, each as its members' ids,
    ascending, and ``partners[i]`` i's conflict partners, ascending (see
    ``Universe``). ``closure_ends[i]`` holds the conflict
    ends inside i's closure; it and the id-valued methods speak in these
    ids. The Package-level members translate ids back, with
    ``repo.package_id`` and no Package → id table of their own.

    The successors, the components, ``closure_ends``, ``easy_ids``, the
    closures and the connecting lists are each built by their first
    read, as the module docstring lists.
    """

    def __init__(self, universe: Universe):
        self.packages: tuple[Package, ...] = universe.order
        self.deps = universe.deps
        self.partners = universe.partners
        self._relevant: dict[frozenset[int], frozenset[int]] = {}

    # -- integer surface -------------------------------------------------------

    @cached_property
    def _succ(self) -> list[list[int]]:
        """Per package, the packages it may depend on, ascending."""
        return [sorted(set().union(*deps)) for deps in self.deps]

    @cached_property
    def _components(self) -> list[list[int]]:
        """The strongly connected components of the may-depend graph,
        children first, found by the module's ``_components`` walk at the
        first read of the conflict ends or the closures."""
        return _components(self._succ)

    @cached_property
    def closure_ends(self) -> list[frozenset[int]]:
        return _scc_ends(self._succ, self._components,
                         frozenset(i for i, ps in enumerate(self.partners) if ps))

    @cached_property
    def easy_ids(self) -> frozenset[int]:
        return frozenset(i for i, ends in enumerate(self.closure_ends)
                         if not ends)

    @cached_property
    def _closures(self) -> list[tuple[int, ...]]:
        """Every closure, built by the first call that reads one."""
        return _scc_closures(self._succ, self._components)

    def closure(self, i: int) -> tuple[int, ...]:
        """i's closure, i included, in no particular order."""
        return self._closures[i]

    def hard_closure(self, i: int) -> tuple[int, ...]:
        """i's closure restricted to hard packages; (i,) for an easy i.

        For a hard i this is also what a walk from i through hard packages
        reaches: a package on a path from i to a hard package w has w's
        closure, with its conflict end, inside its own, so it is hard too.
        """
        ends = self.closure_ends
        if not ends[i]:
            return (i,)
        return tuple(q for q in self._closures[i] if ends[q])

    def relevant_ends(self, i: int) -> frozenset[int]:
        """The endpoints of conflicts with both ends inside i's closure.

        Computed once per set of conflict ends: the sets are shared by
        the members of a component and along dependency chains.
        """
        ends = self.closure_ends[i]
        relevant = self._relevant.get(ends)
        if relevant is None:
            partners = self.partners
            relevant = self._relevant[ends] = frozenset(
                a for a in ends if not ends.isdisjoint(partners[a]))
        return relevant

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
        return list(self._connecting[i])

    @cached_property
    def _connecting(self) -> list[list[int]]:
        """Every package's connecting ids, built by the first
        ``connecting_ids`` call, components children first.

        A component whose closure holds a relevant conflict walks from its
        members, which all reach an endpoint and share one list. From a
        successor w, the walk under the relevant ends R enters what a walk
        under R ∩ ends(w) would, as w's closure holds every package after
        it. R ∩ ends(w) always holds w's own relevant ends, and when it
        holds no more (as when w has the component's conflict ends), the
        walk takes w's finished list instead of walking on from w.
        """
        ends, succ = self.closure_ends, self._succ
        relevant_of = self._relevant  # filled for every earlier component
        lists: list[list[int]] = [[]] * len(succ)
        for component in self._components:
            relevant = self.relevant_ends(component[0])
            if not relevant:
                for w in component:
                    lists[w] = [w]
                continue
            seen = set(component)
            todo = list(component)
            while todo:
                for w in succ[todo.pop()]:
                    if w in seen or relevant.isdisjoint(ends[w]):
                        continue
                    if len(relevant_of[ends[w]]) == \
                            len(relevant.intersection(ends[w])):
                        seen.update(lists[w])
                    else:
                        seen.add(w)
                        todo.append(w)
            members = sorted(seen)
            for w in component:
                lists[w] = members
        return lists

    # -- package surface -------------------------------------------------------

    @property
    def easy(self) -> frozenset[Package]:
        return frozenset(self.packages[i] for i in self.easy_ids)

    def connecting(self, p: Package) -> frozenset[Package]:
        """Closure members whose own closure reaches a relevant-conflict
        endpoint, plus p itself."""
        i = package_id(self.packages, p)
        if i is None:
            raise KeyError(p)
        return frozenset(map(self.packages.__getitem__, self.connecting_ids(i)))
