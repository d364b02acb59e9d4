"""SAT / partial MaxSAT core.

Instance model, an embedded conflict-driven clause-learning (CDCL) solver
with a native bound on the satisfied soft units, exact unit-soft PMAX-SAT
by linear lower-bound search over one such solver, deletion-based minimal
unsatisfiable subset extraction that prunes clauses in no core through
autarkies (pure literals, and the autarky inside each satisfiable trial's
model), DIMACS CNF/WCNF serialization, and an adapter for external solver
executables.

Atoms are positive integers; a literal is an atom or its negation as a
signed int. An assignment is the set of true atoms (everything else false).
"""

from __future__ import annotations

import heapq
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


DEFAULT_SAT_TIMEOUT = 60.0
DEFAULT_PMAX_TIMEOUT = 300.0

# CDCL search constants, MiniSat's defaults: activity decay per conflict,
# conflicts per unit of the Luby restart sequence, and the activity above
# which every activity is scaled down.
VAR_DECAY = 0.95
RESTART_FIRST = 100
ACTIVITY_LIMIT = 1e100


class SatCoreError(Exception):
    """Base class for solver-layer failures."""


class NotUnsat(SatCoreError):
    """MUS extraction was asked to explain a satisfiable instance."""


class MusTimedOut(SatCoreError):
    """MUS extraction ran out of its time budget."""


class SolverCrashed(SatCoreError):
    """External solver could not be executed or died on a signal."""


class UnparsableOutput(SatCoreError):
    """External solver output carried no recognizable result lines."""


class AssignmentInvalid(SatCoreError):
    """External solver returned a model violating a hard clause."""


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    OPTIMAL = "optimal"
    TIMEOUT = "timeout"


@dataclass
class SolveResult:
    status: SolveStatus
    true_atoms: frozenset[int] | None = None
    satisfied_soft: int | None = None
    externally_claimed: bool = False
    claimed_cost: int | None = None


@dataclass
class MusResult:
    """Indices into the original hard clause list forming a minimal core."""

    core: tuple[int, ...]


def normalize_clause(literals) -> tuple[int, ...] | None:
    """Dedupe literals and sort by variable; None for tautologies."""
    seen = set(literals)
    if 0 in seen:
        raise ValueError("literal 0 is not allowed")
    # distinct literals share a variable only as x and -x, which then sit
    # side by side
    ordered = sorted(seen, key=abs)
    previous = 0
    for lit in ordered:
        if lit == -previous:
            return None
        previous = lit
    return tuple(ordered)


def literal_true(lit: int, true_atoms) -> bool:
    return (lit in true_atoms) if lit > 0 else (-lit not in true_atoms)


def clause_satisfied(clause, true_atoms) -> bool:
    return any(literal_true(lit, true_atoms) for lit in clause)


def verify_model(clauses, true_atoms) -> bool:
    return all(clause_satisfied(c, true_atoms) for c in clauses)


def count_satisfied(soft, true_atoms) -> int:
    return sum(1 for c in soft if clause_satisfied(c, true_atoms))


def luby(i: int) -> int:
    """The i-th term, from 0, of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def infer_num_vars(*clause_sets) -> int:
    num = 0
    for clauses in clause_sets:
        for clause in clauses:
            for lit in clause:
                if abs(lit) > num:
                    num = abs(lit)
    return num


class DpllSolver:
    """Conflict-driven clause learning over a fixed clause set, reusable
    across solve calls.

    The search is MiniSat's (Eén & Sörensson, SAT 2003): two-watched-literal
    unit propagation, first-UIP conflict analysis with non-chronological
    backjumping, VSIDS activities with ties broken by the lowest variable
    index, phase saving and Luby restarts. Until the first conflict every
    activity is zero, so the solver decides in index order and builds its
    activity heap only then; small fresh instances stay cheap. Initial
    phases follow the soft units' polarity, true where a variable has none.
    Assumptions are the first decisions, so clauses learned under them
    hold for every later call. Everything is deterministic: identical
    calls yield identical models.

    ``required_soft`` is a native constraint over the soft unit literals:
    when more soft weight is falsified than the bound allows, the clause of
    the falsified soft literals is the conflict; at zero slack it forces the
    remaining soft literals, with that clause as their reason. A clause
    learned under bound k holds for every bound ≥ k, so learned clauses are
    kept across the rising bounds of the PMAX-SAT search; a call with a
    lower bound drops those learned under a higher one.

    ``decisions``, ``propagations``, ``conflicts``, ``learned`` and
    ``restarts`` count the work of all calls so far.
    """

    def __init__(self, num_vars: int, clauses, soft_literals=()):
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []
        self.initial_units: list[int] = []
        self.has_empty = False
        occurs = bytearray(num_vars + 1)
        for raw in clauses:
            clause = normalize_clause(raw)
            if clause is None:
                continue
            for lit in clause:
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} exceeds num_vars={num_vars}")
                occurs[abs(lit)] = 1
            if not clause:
                self.has_empty = True
            elif len(clause) == 1:
                self.initial_units.append(clause[0])
            else:
                self.clauses.append(list(clause))
        # Arrays indexed by literal have 2 * num_vars + 2 entries: literal v
        # sits at v and, by Python's negative indexing, -v at len - v.
        size = 2 * num_vars + 2
        # soft units: a variable's net weight, signed by the polarity that
        # satisfies it; units of both signs on one variable cost the smaller
        # count whatever its value (soft_fixed)
        weight = [0] * (num_vars + 1)
        self.soft_total = 0
        for lit in soft_literals:
            if abs(lit) > num_vars:
                raise ValueError(f"soft literal {lit} exceeds num_vars={num_vars}")
            weight[abs(lit)] += 1 if lit > 0 else -1
            self.soft_total += 1
            occurs[abs(lit)] = 1
        self.soft_vars = [v for v in range(1, num_vars + 1) if weight[v]]
        self.soft_fixed = (self.soft_total
                           - sum(abs(weight[v]) for v in self.soft_vars)) // 2
        self.max_weight = max((abs(weight[v]) for v in self.soft_vars), default=0)
        self.weight = weight
        # falsifies[lit]: soft weight falsified by making lit true
        self.falsifies = [0] * size if self.soft_vars else None
        self.phase = bytearray(b"\x01") * (num_vars + 1)
        for v in self.soft_vars:
            if weight[v] > 0:
                self.falsifies[-v] = weight[v]
            else:
                self.falsifies[v] = -weight[v]
                self.phase[v] = 0
        self.branch_vars = [v for v in range(1, num_vars + 1) if occurs[v]]
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        for clause in self.clauses:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        # learned clauses and units, each with the bound it was learned under
        self.learnt: list[tuple[int, list[int]]] = []
        self.learnt_units: list[tuple[int, int]] = []
        self.learnt_bound = 0
        self.activity: list[float] | None = None
        self.var_inc = 1.0
        self.decisions = self.propagations = self.conflicts = 0
        self.learned = self.restarts = 0

    # -- learned clauses ------------------------------------------------------

    def _drop_learned_above(self, bound: int):
        """Forget what was learned under a bound above ``bound``: it may
        rest on the budget of that bound."""
        self.learnt = [(t, c) for t, c in self.learnt if t <= bound]
        self.learnt_units = [(t, l) for t, l in self.learnt_units if t <= bound]
        self.learnt_bound = bound
        self.watches = [[] for _ in range(2 * self.num_vars + 2)]
        for clause in self.clauses + [c for _, c in self.learnt]:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)

    # -- trail ----------------------------------------------------------------

    def _assign(self, lit: int, reason):
        var = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        start = self.trail_lim[lvl]
        trail, value, phase = self.trail, self.value, self.phase
        heap, activity = self.heap, self.activity
        for lit in trail[start:]:
            value[lit] = value[-lit] = 0
            phase[abs(lit)] = lit > 0
            if heap is not None:
                heapq.heappush(heap, (-activity[abs(lit)], abs(lit)))
        if self.budget_head > start:
            falsifies = self.falsifies
            self.falsified -= sum(falsifies[lit]
                                  for lit in trail[start:self.budget_head])
            self.budget_head = start
        self.forced_slack = self.max_weight
        del trail[start:]
        if heap is not None and len(heap) > 4 * len(self.branch_vars):
            self._build_heap()
        del self.trail_lim[lvl:]
        self.qhead = start

    def _build_heap(self):
        activity, value = self.activity, self.value
        self.heap = [(-activity[v], v) for v in self.branch_vars if not value[v]]
        heapq.heapify(self.heap)

    # -- propagation ----------------------------------------------------------

    def _propagate_clauses(self):
        """Two-watched-literal unit propagation; the conflict clause or None."""
        value, level, reason = self.value, self.level, self.reason
        trail, watches = self.trail, self.watches
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        conflict = None
        while qhead < len(trail) and conflict is None:
            flit = -trail[qhead]
            qhead += 1
            watchlist = watches[flit]
            i = 0
            while i < len(watchlist):
                clause = watchlist[i]
                if clause[0] == flit:
                    clause[0] = clause[1]
                    clause[1] = flit
                first = clause[0]
                if value[first] == 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if value[lk] != -1:
                        clause[1] = lk
                        clause[k] = flit
                        watches[lk].append(clause)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        break
                else:
                    if value[first]:
                        conflict = clause
                        break
                    value[first] = 1
                    value[-first] = -1
                    level[abs(first)] = lvl
                    reason[abs(first)] = clause
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        self.propagations += qhead - start
        return conflict

    def _falsified_soft(self) -> list[int]:
        falsifies = self.falsifies
        return [-lit for lit in self.trail if falsifies[lit]]

    def _propagate(self):
        """Unit propagation over the clauses and the soft budget; the
        conflict clause or None."""
        while True:
            conflict = self._propagate_clauses()
            if conflict is not None or self.slack_limit is None:
                return conflict
            trail, falsifies = self.trail, self.falsifies
            self.falsified += sum(falsifies[lit] for lit in trail[self.budget_head:])
            self.budget_head = len(trail)
            slack = self.slack_limit - self.falsified
            if slack < 0:
                return self._falsified_soft()
            if slack >= self.forced_slack:
                return None
            # every soft literal whose loss the slack cannot absorb is forced
            self.forced_slack = slack
            because = self._falsified_soft()
            value, weight = self.value, self.weight
            forced = [v if weight[v] > 0 else -v for v in self.soft_vars
                      if not value[v] and abs(weight[v]) > slack]
            if not forced:
                return None
            for lit in forced:
                self._assign(lit, because)

    # -- conflict analysis ----------------------------------------------------

    def _rescale(self):
        activity = self.activity
        for v in range(len(activity)):
            activity[v] *= 1 / ACTIVITY_LIMIT
        self.var_inc *= 1 / ACTIVITY_LIMIT
        if self.heap is not None:
            self._build_heap()

    def _analyze(self, conflict):
        """First-UIP learned clause (asserting literal first, a literal of
        the backjump level second) and the level to backjump to."""
        if self.activity is None:
            self.activity = [0.0] * (self.num_vars + 1)
        level, reason, trail = self.level, self.reason, self.trail
        activity, var_inc = self.activity, self.var_inc
        lvl = len(self.trail_lim)
        seen = bytearray(self.num_vars + 1)
        learnt = [0]
        pending = 0
        index = len(trail) - 1
        clause = conflict
        while True:
            for q in clause:
                var = abs(q)
                if not seen[var] and level[var]:
                    seen[var] = 1
                    activity[var] += var_inc
                    if activity[var] > ACTIVITY_LIMIT:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[var] == lvl:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            uip = trail[index]
            index -= 1
            pending -= 1
            if not pending:
                break
            clause = reason[abs(uip)]
        learnt[0] = -uip
        # drop literals implied by the rest of the clause through their reason
        kept = [learnt[0]]
        for q in learnt[1:]:
            why = reason[abs(q)]
            if why is None or any(not seen[abs(r)] and level[abs(r)] for r in why):
                kept.append(q)
        if len(kept) == 1:
            return kept, 0
        top = max(range(1, len(kept)), key=lambda k: level[abs(kept[k])])
        kept[1], kept[top] = kept[top], kept[1]
        return kept, level[abs(kept[1])]

    def _learn(self, clause: list[int], bound: int):
        self.learned += 1
        if len(clause) == 1:
            self.learnt_units.append((bound, clause[0]))
            self._assign(clause[0], None)
            return
        self.learnt.append((bound, clause))
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)
        self._assign(clause[0], clause)

    # -- search ---------------------------------------------------------------

    def _pick(self) -> int:
        """The unassigned variable of highest activity, lowest index first;
        0 when every variable is assigned."""
        value = self.value
        if self.heap is None:
            branch_vars = self.branch_vars
            k = self.next_var
            while k < len(branch_vars) and value[branch_vars[k]]:
                k += 1
            self.next_var = k
            return branch_vars[k] if k < len(branch_vars) else 0
        heap, activity = self.heap, self.activity
        while heap:
            act, var = heapq.heappop(heap)
            if not value[var] and -act == activity[var]:
                return var
        return 0

    def solve(self, assumptions=(), required_soft: int = 0,
              timeout: float = DEFAULT_SAT_TIMEOUT) -> SolveResult:
        deadline = time.monotonic() + timeout
        bound = max(required_soft, 0)
        if bound < self.learnt_bound:
            self._drop_learned_above(bound)
        self.learnt_bound = max(self.learnt_bound, bound)
        n = self.num_vars
        self.value = [0] * (2 * n + 2)
        self.level = [0] * (n + 1)
        self.reason: list = [None] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = self.next_var = 0
        self.heap = None
        self.falsified = self.budget_head = 0
        self.forced_slack = self.max_weight
        # largest soft weight that may still be falsified; None: no budget
        self.slack_limit = None
        if bound:
            self.slack_limit = self.soft_total - self.soft_fixed - bound
            if self.slack_limit < 0:
                return SolveResult(SolveStatus.UNSAT)
        if self.has_empty:
            return SolveResult(SolveStatus.UNSAT)
        value = self.value
        for lit in self.initial_units + [l for _, l in self.learnt_units]:
            if value[lit] == -1:
                return SolveResult(SolveStatus.UNSAT)
            if not value[lit]:
                self._assign(lit, None)
        if self.activity is not None:
            self._build_heap()
        trail_lim, trail = self.trail_lim, self.trail
        level, reason = self.level, self.reason
        propagate = (self._propagate_clauses if self.slack_limit is None
                     else self._propagate)
        assumptions = tuple(assumptions)
        restart_at = RESTART_FIRST
        restart_count = since_restart = steps = 0
        while True:
            steps += 1
            if steps % 256 == 0 and time.monotonic() > deadline:
                return SolveResult(SolveStatus.TIMEOUT)
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                # below the first branching decision the conflict follows
                # from the clauses, the budget and the assumptions alone
                if len(trail_lim) <= len(assumptions):
                    return SolveResult(SolveStatus.UNSAT)
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                self._learn(learnt, bound)
                if self.heap is None:
                    self._build_heap()
                self.var_inc /= VAR_DECAY
                since_restart += 1
                if since_restart >= restart_at:
                    self._cancel_until(0)
                    self.restarts += 1
                    restart_count += 1
                    since_restart = 0
                    restart_at = luby(restart_count) * RESTART_FIRST
                continue
            lit = 0
            while len(trail_lim) < len(assumptions):
                p = assumptions[len(trail_lim)]
                if value[p] == 1:
                    trail_lim.append(len(trail))
                elif value[p]:
                    return SolveResult(SolveStatus.UNSAT)
                else:
                    lit = p
                    break
            if not lit:
                var = self._pick()
                if not var:
                    return SolveResult(SolveStatus.SAT, true_atoms=frozenset(
                        v for v in range(1, n + 1) if value[v] == 1))
                self.decisions += 1
                lit = var if self.phase[var] else -var
            trail_lim.append(len(trail))
            value[lit] = 1
            value[-lit] = -1
            level[abs(lit)] = len(trail_lim)
            reason[abs(lit)] = None
            trail.append(lit)


def solve_sat(hard, num_vars: int | None = None, assumptions=(),
              timeout: float = DEFAULT_SAT_TIMEOUT) -> SolveResult:
    """Decide satisfiability of the hard clauses with the embedded solver."""
    hard = list(hard)
    if num_vars is None:
        num_vars = max(infer_num_vars(hard),
                       max((abs(l) for l in assumptions), default=0))
    solver = DpllSolver(num_vars, hard)
    result = solver.solve(assumptions=assumptions, timeout=timeout)
    if result.status is SolveStatus.SAT:
        assumed = set(assumptions)
        if not verify_model(hard, result.true_atoms) or \
                any(not literal_true(l, result.true_atoms) for l in assumed):
            raise SatCoreError("internal error: model failed re-verification")
    return result


def solve_pmaxsat(hard, soft, num_vars: int | None = None,
                  timeout: float = DEFAULT_PMAX_TIMEOUT) -> SolveResult:
    """Maximize the number of satisfied soft unit clauses.

    Linear search: find any solution, then repeatedly re-solve demanding at
    least one more satisfied soft unit (the solver's native bound) until the
    bound cannot be improved or the total is reached. One solver serves
    every step and keeps its learned clauses, which stay valid as the bound
    rises; its first model follows the soft units' polarity.
    """
    hard = list(hard)
    soft = [tuple(c) for c in soft]
    for clause in soft:
        if len(clause) != 1:
            raise ValueError("soft clauses must be unit clauses")
    if num_vars is None:
        num_vars = infer_num_vars(hard, soft)
    deadline = time.monotonic() + timeout
    solver = DpllSolver(num_vars, hard, soft_literals=[c[0] for c in soft])
    best = solver.solve(timeout=timeout)
    if best.status is not SolveStatus.SAT:
        return best
    best_count = count_satisfied(soft, best.true_atoms)
    total = len(soft)
    while best_count < total:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return SolveResult(SolveStatus.TIMEOUT)
        attempt = solver.solve(required_soft=best_count + 1, timeout=remaining)
        if attempt.status is SolveStatus.TIMEOUT:
            return attempt
        if attempt.status is SolveStatus.UNSAT:
            break
        best = attempt
        best_count = count_satisfied(soft, best.true_atoms)
    if not verify_model(hard, best.true_atoms):
        raise SatCoreError("internal error: model failed re-verification")
    return SolveResult(SolveStatus.OPTIMAL, true_atoms=best.true_atoms,
                       satisfied_soft=best_count)


def pure_literal_autarky(clauses) -> set[int]:
    """Positions of the clauses that iterated pure-literal elimination
    removes: a literal whose complement occurs in no remaining clause is
    made true, and every clause containing it goes, until no literal is
    pure. Those literals form an autarky, and the clauses it satisfies lie
    in no minimal unsatisfiable subset."""
    occurs: dict[int, list[int]] = {}
    for pos, clause in enumerate(clauses):
        for lit in set(clause):
            occurs.setdefault(lit, []).append(pos)
    count = {lit: len(where) for lit, where in occurs.items()}
    pure = [lit for lit in occurs if -lit not in occurs]
    removed: set[int] = set()
    while pure:
        for pos in occurs[pure.pop()]:
            if pos in removed:
                continue
            removed.add(pos)
            for lit in set(clauses[pos]):
                count[lit] -= 1
                if count[lit] == 0 and count.get(-lit, 0) > 0:
                    pure.append(-lit)
    return removed


def model_autarky(clauses, true_atoms) -> set[int]:
    """Positions of the clauses touched by the largest autarky inside the
    assignment ``true_atoms``: the assignment restricted to the variables
    that stay fixed when the variables of every clause it falsifies are
    freed, and then those of every clause left with no true literal over a
    fixed variable, until nothing changes. Every clause that keeps a true
    literal over a fixed variable is satisfied by that autarky and lies in
    no minimal unsatisfiable subset; every other clause is untouched."""
    support = []
    true_in: dict[int, list[int]] = {}
    unsupported = []
    for pos, clause in enumerate(clauses):
        n = 0
        for lit in clause:
            if literal_true(lit, true_atoms):
                n += 1
                true_in.setdefault(abs(lit), []).append(pos)
        support.append(n)
        if not n:
            unsupported.append(pos)
    freed: set[int] = set()
    while unsupported:
        for lit in clauses[unsupported.pop()]:
            var = abs(lit)
            if var in freed:
                continue
            freed.add(var)
            for pos in true_in.get(var, ()):
                support[pos] -= 1
                if not support[pos]:
                    unsupported.append(pos)
    return {pos for pos, n in enumerate(support) if n}


def extract_mus(hard, num_vars: int | None = None,
                timeout: float = DEFAULT_SAT_TIMEOUT) -> MusResult:
    """Deletion-based minimal unsatisfiable subset of an UNSAT clause set.

    Walks the core in clause order and tries to drop the next ``step``
    clauses at once: a run whose removal keeps the rest UNSAT is dropped and
    the step doubles; a run whose removal makes it SAT is halved, down to a
    single clause, which is then kept. Unsatisfiability is monotone, so this
    returns exactly the core of dropping one clause at a time, with far fewer
    solver calls when most clauses are irrelevant.

    Clauses that lie in no core are pruned without a solver call: before
    the walk, those removed by pure-literal elimination, and after every
    satisfiable trial, those touched by the largest autarky inside the
    trial's model over the current core (every clause not yet dropped, the
    run just tried included). Neither changes the result. A clause d in no
    minimal unsatisfiable subset of the current set S never changes a
    deletion decision: if S minus some clauses is UNSAT, it contains a
    minimal unsatisfiable subset of S, which does not contain d, so it stays
    UNSAT without d; and the subsets of S without d have no other minimal
    unsatisfiable subsets, so this holds for every later decision too. A
    kept clause is in every minimal unsatisfiable subset of the current set,
    so an autarky that touches one is an internal error.

    The full instance is first checked UNSAT, and the returned core is
    re-verified: it is UNSAT (pruning drops clauses without a solver call),
    and removing any single clause makes it satisfiable. ``timeout`` is one
    deadline for the whole extraction.
    """
    hard = [tuple(c) for c in hard]
    if num_vars is None:
        num_vars = infer_num_vars(hard)
    deadline = time.monotonic() + timeout

    def solve(indices):
        remaining = deadline - time.monotonic()
        result = SolveResult(SolveStatus.TIMEOUT)
        if remaining > 0:
            result = solve_sat([hard[i] for i in indices], num_vars=num_vars,
                               timeout=remaining)
        if result.status is SolveStatus.TIMEOUT:
            raise MusTimedOut("timeout during core minimization")
        return result

    if solve(range(len(hard))).status is not SolveStatus.UNSAT:
        raise NotUnsat("instance is satisfiable")
    pure = pure_literal_autarky(hard)
    core = [i for i in range(len(hard)) if i not in pure]
    i, step = 0, 1
    while i < len(core):
        step = min(step, len(core) - i)
        trial = core[:i] + core[i + step:]
        result = solve(trial)
        if result.status is SolveStatus.UNSAT:
            core = trial
            step *= 2
            continue
        if step > 1:
            step //= 2
        else:
            i += 1
        touched = model_autarky([hard[j] for j in core], result.true_atoms)
        if min(touched, default=i) < i:
            raise SatCoreError("internal error: an autarky touched a kept "
                               "core clause")
        core = core[:i] + [c for pos, c in enumerate(core[i:], i)
                           if pos not in touched]
    if solve(core).status is not SolveStatus.UNSAT:
        raise SatCoreError("internal error: core is satisfiable")
    for i in range(len(core)):
        if solve(core[:i] + core[i + 1:]).status is not SolveStatus.SAT:
            raise SatCoreError("internal error: core failed minimality check")
    return MusResult(core=tuple(core))


# ---------------------------------------------------------------------------
# DIMACS serialization


def _clause_lines(prefix: str, clauses) -> list[str]:
    """One DIMACS line per clause: the prefix, the literals, then 0."""
    return [prefix + " ".join(map(str, c)) + " 0" if c else prefix + "0"
            for c in clauses]


def emit_dimacs(hard, soft=None, num_vars: int | None = None,
                kind: str = "cnf") -> bytes:
    """Serialize to DIMACS CNF or WCNF.

    WCNF weights: hard clauses get top = number of soft clauses + 1, soft
    clauses get weight 1.
    """
    hard = [tuple(c) for c in hard]
    soft = [tuple(c) for c in soft] if soft else []
    if num_vars is None:
        num_vars = infer_num_vars(hard, soft)
    if kind == "cnf":
        if soft:
            raise ValueError("cnf cannot carry soft clauses")
        lines = [f"p cnf {num_vars} {len(hard)}"]
        lines += _clause_lines("", hard)
    elif kind == "wcnf":
        top = len(soft) + 1
        lines = [f"p wcnf {num_vars} {len(hard) + len(soft)} {top}"]
        lines += _clause_lines(f"{top} ", hard)
        lines += _clause_lines("1 ", soft)
    else:
        raise ValueError(f"unknown DIMACS kind {kind!r}")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_dimacs(data: bytes | str):
    """Parse DIMACS CNF/WCNF; returns (kind, num_vars, hard, soft)."""
    text = data.decode("ascii") if isinstance(data, bytes) else data
    kind = None
    num_vars = 0
    top = None
    hard: list[tuple[int, ...]] = []
    soft: list[tuple[int, ...]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            kind = parts[1]
            num_vars = int(parts[2])
            if kind == "wcnf":
                top = int(parts[4])
            elif kind != "cnf":
                raise ValueError(f"unknown DIMACS kind {kind!r}")
            continue
        if kind is None:
            raise ValueError("clause line before DIMACS header")
        values = [int(tok) for tok in line.split()]
        if values and values[-1] == 0:
            values = values[:-1]
        if kind == "cnf":
            hard.append(tuple(values))
        else:
            weight, clause = values[0], tuple(values[1:])
            (hard if weight == top else soft).append(clause)
    if kind is None:
        raise ValueError("missing DIMACS header")
    return kind, num_vars, hard, soft


# ---------------------------------------------------------------------------
# External solver adapter


def run_external(command, hard, soft=None, num_vars: int | None = None,
                 kind: str = "cnf", timeout: float = 600.0) -> SolveResult:
    """Run an external solver on the instance and re-verify its answer.

    The solver is invoked as ``command... instance-path`` and its stdout is
    parsed for competition-style ``s``/``v``/``o`` lines; the exit code is
    ignored. Returned models are checked against every hard clause, and the
    satisfied-soft count is always recomputed here rather than trusted.
    """
    hard = [tuple(c) for c in hard]
    soft = [tuple(c) for c in soft] if soft else []
    if num_vars is None:
        num_vars = infer_num_vars(hard, soft)
    payload = emit_dimacs(hard, soft or None, num_vars=num_vars, kind=kind)
    with tempfile.NamedTemporaryFile(suffix=f".{kind}", delete=False) as handle:
        handle.write(payload)
        path = handle.name
    try:
        try:
            proc = subprocess.run(list(command) + [path], capture_output=True,
                                  text=True, timeout=timeout)
        except OSError as exc:
            raise SolverCrashed(f"cannot run {command!r}: {exc}") from exc
        except subprocess.TimeoutExpired:
            return SolveResult(SolveStatus.TIMEOUT)
        if proc.returncode < 0:
            raise SolverCrashed(f"solver killed by signal {-proc.returncode}")
        return _parse_solver_output(proc.stdout, hard, soft)
    finally:
        Path(path).unlink(missing_ok=True)


def _parse_solver_output(stdout: str, hard, soft) -> SolveResult:
    status_line = None
    literals: list[int] = []
    claimed_cost = None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            status_line = line[2:].strip()
        elif line.startswith("v "):
            literals += [int(tok) for tok in line[2:].split()]
        elif line.startswith("o "):
            try:
                claimed_cost = int(line[2:].strip())
            except ValueError as exc:
                raise UnparsableOutput(f"bad objective line {line!r}") from exc
    if status_line is None:
        raise UnparsableOutput("no 's' result line in solver output")
    if status_line == "UNSATISFIABLE":
        return SolveResult(SolveStatus.UNSAT)
    if status_line == "UNKNOWN":
        return SolveResult(SolveStatus.TIMEOUT)
    if status_line not in ("SATISFIABLE", "OPTIMUM FOUND"):
        raise UnparsableOutput(f"unrecognized status {status_line!r}")
    model = frozenset(lit for lit in literals if lit > 0)
    if not verify_model(hard, model):
        raise AssignmentInvalid("external model violates a hard clause")
    satisfied = count_satisfied(soft, model) if soft else None
    if status_line == "OPTIMUM FOUND":
        return SolveResult(SolveStatus.OPTIMAL, true_atoms=model,
                           satisfied_soft=satisfied, externally_claimed=True,
                           claimed_cost=claimed_cost)
    return SolveResult(SolveStatus.SAT, true_atoms=model,
                       satisfied_soft=satisfied, claimed_cost=claimed_cost)
