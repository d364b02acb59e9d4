"""SAT / partial MaxSAT core.

Instance model, an embedded DPLL solver with two-watched-literal unit
propagation, exact unit-soft PMAX-SAT by linear lower-bound search,
deletion-based minimal unsatisfiable subset extraction, DIMACS CNF/WCNF
serialization, and an adapter for external solver executables.

Atoms are positive integers; a literal is an atom or its negation as a
signed int. An assignment is the set of true atoms (everything else false).
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


DEFAULT_SAT_TIMEOUT = 60.0
DEFAULT_PMAX_TIMEOUT = 300.0


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
    for lit in seen:
        if -lit in seen:
            return None
    return tuple(sorted(seen, key=lambda l: (abs(l), l)))


def literal_true(lit: int, true_atoms) -> bool:
    return (lit in true_atoms) if lit > 0 else (-lit not in true_atoms)


def clause_satisfied(clause, true_atoms) -> bool:
    return any(literal_true(lit, true_atoms) for lit in clause)


def verify_model(clauses, true_atoms) -> bool:
    return all(clause_satisfied(c, true_atoms) for c in clauses)


def count_satisfied(soft, true_atoms) -> int:
    return sum(1 for c in soft if clause_satisfied(c, true_atoms))


def infer_num_vars(*clause_sets) -> int:
    num = 0
    for clauses in clause_sets:
        for clause in clauses:
            for lit in clause:
                if abs(lit) > num:
                    num = abs(lit)
    return num


class DpllSolver:
    """Iterative DPLL over a fixed clause set, reusable across solve calls.

    Branching is deterministic (lowest-index unassigned variable, true
    first), so identical inputs yield identical models. An optional budget
    over soft unit literals prunes branches that can no longer reach the
    required number of satisfied soft units; this is the engine behind the
    linear-search PMAX-SAT strategy.
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
        # soft budget bookkeeping: per-variable counts of +v / -v soft units
        self.soft_pos = [0] * (num_vars + 1)
        self.soft_neg = [0] * (num_vars + 1)
        self.soft_total = 0
        for lit in soft_literals:
            if abs(lit) > num_vars:
                raise ValueError(f"soft literal {lit} exceeds num_vars={num_vars}")
            if lit > 0:
                self.soft_pos[lit] += 1
            else:
                self.soft_neg[-lit] += 1
            self.soft_total += 1
            occurs[abs(lit)] = 1
        self.branch_vars = [v for v in range(1, num_vars + 1) if occurs[v]]
        # watch lists indexed by literal + num_vars
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]
        for ci, clause in enumerate(self.clauses):
            self.watches[clause[0] + num_vars].append(ci)
            self.watches[clause[1] + num_vars].append(ci)
        # clause polarity census for root-level pure literal elimination
        self._pos_occ = [0] * (num_vars + 1)
        self._neg_occ = [0] * (num_vars + 1)
        for clause in self.clauses:
            for lit in clause:
                if lit > 0:
                    self._pos_occ[lit] += 1
                else:
                    self._neg_occ[-lit] += 1
        for lit in self.initial_units:
            if lit > 0:
                self._pos_occ[lit] += 1
            else:
                self._neg_occ[-lit] += 1

    # -- per-solve state ----------------------------------------------------

    def _reset(self):
        self.assign = [0] * (self.num_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
        self.soft_falsified = 0

    def _enqueue(self, lit: int) -> bool:
        """Assign lit true; False on contradiction with current value."""
        var = abs(lit)
        val = 1 if lit > 0 else -1
        cur = self.assign[var]
        if cur:
            return cur == val
        self.assign[var] = val
        self.trail.append(lit)
        if val > 0:
            self.soft_falsified += self.soft_neg[var]
        else:
            self.soft_falsified += self.soft_pos[var]
        return True

    def _undo_to(self, mark: int):
        assign = self.assign
        for lit in reversed(self.trail[mark:]):
            var = abs(lit)
            if lit > 0:
                self.soft_falsified -= self.soft_neg[var]
            else:
                self.soft_falsified -= self.soft_pos[var]
            assign[var] = 0
        del self.trail[mark:]
        self.qhead = mark

    def _propagate(self) -> bool:
        """Two-watched-literal unit propagation; False on conflict."""
        n = self.num_vars
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            flit = -lit
            watchlist = watches[flit + n]
            i = 0
            while i < len(watchlist):
                ci = watchlist[i]
                clause = clauses[ci]
                if clause[0] == flit:
                    clause[0] = clause[1]
                    clause[1] = flit
                first = clause[0]
                if assign[abs(first)] == (1 if first > 0 else -1):
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if assign[abs(lk)] != (-1 if lk > 0 else 1):
                        clause[1] = lk
                        clause[k] = flit
                        watches[lk + n].append(ci)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                if assign[abs(first)] == 0:
                    self._enqueue(first)
                    i += 1
                else:
                    return False
        return True

    def _budget_ok(self, required: int) -> bool:
        return self.soft_total - self.soft_falsified >= required

    def _pure_literals(self):
        # Safe only without assumptions and without a soft budget: a model
        # stays a model when a pure variable takes its sole polarity.
        for var in self.branch_vars:
            if self.assign[var]:
                continue
            pos, neg = self._pos_occ[var], self._neg_occ[var]
            if pos and not neg:
                self._enqueue(var)
            elif neg and not pos:
                self._enqueue(-var)

    def solve(self, assumptions=(), required_soft: int = 0,
              timeout: float = DEFAULT_SAT_TIMEOUT) -> SolveResult:
        deadline = time.monotonic() + timeout
        self._reset()
        if self.has_empty:
            return SolveResult(SolveStatus.UNSAT)
        for lit in self.initial_units:
            if not self._enqueue(lit):
                return SolveResult(SolveStatus.UNSAT)
        if not self._propagate():
            return SolveResult(SolveStatus.UNSAT)
        for lit in assumptions:
            if not self._enqueue(lit) or not self._propagate():
                return SolveResult(SolveStatus.UNSAT)
        if not self._budget_ok(required_soft):
            return SolveResult(SolveStatus.UNSAT)
        if not assumptions and not self.soft_total:
            self._pure_literals()
            if not self._propagate():  # pragma: no cover - purity is safe
                return SolveResult(SolveStatus.UNSAT)
        decisions: list[tuple[int, int, bool]] = []
        branch_vars = self.branch_vars
        assign = self.assign
        steps = 0
        conflict = False
        while True:
            steps += 1
            if steps % 1024 == 0 and time.monotonic() > deadline:
                return SolveResult(SolveStatus.TIMEOUT)
            if not conflict:
                var = 0
                for v in branch_vars:
                    if not assign[v]:
                        var = v
                        break
                if not var:
                    model = frozenset(v for v in range(1, self.num_vars + 1)
                                      if assign[v] > 0)
                    return SolveResult(SolveStatus.SAT, true_atoms=model)
                decisions.append((len(self.trail), var, False))
                self._enqueue(var)
                conflict = not (self._propagate() and self._budget_ok(required_soft))
            else:
                while decisions:
                    mark, var, flipped = decisions.pop()
                    self._undo_to(mark)
                    if not flipped:
                        decisions.append((mark, var, True))
                        self._enqueue(-var)
                        conflict = not (self._propagate()
                                        and self._budget_ok(required_soft))
                        break
                else:
                    return SolveResult(SolveStatus.UNSAT)


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
    least one more satisfied soft unit (enforced by the solver's blocking
    counter) until the bound cannot be improved or the total is reached.
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


def extract_mus(hard, num_vars: int | None = None,
                timeout: float = DEFAULT_SAT_TIMEOUT) -> MusResult:
    """Deletion-based minimal unsatisfiable subset of an UNSAT clause set.

    Walks the core in clause order and tries to drop the next ``step``
    clauses at once: a run whose removal keeps the rest UNSAT is dropped and
    the step doubles; a run whose removal makes it SAT is halved, down to a
    single clause, which is then kept. Unsatisfiability is monotone, so this
    returns exactly the core of dropping one clause at a time, with far fewer
    solver calls when most clauses are irrelevant. The returned core is
    re-verified to be minimal: removing any single clause makes it
    satisfiable. ``timeout`` is one deadline for the whole extraction.
    """
    hard = [tuple(c) for c in hard]
    if num_vars is None:
        num_vars = infer_num_vars(hard)
    deadline = time.monotonic() + timeout

    def status_of(indices):
        remaining = deadline - time.monotonic()
        status = SolveStatus.TIMEOUT
        if remaining > 0:
            status = solve_sat([hard[i] for i in indices], num_vars=num_vars,
                               timeout=remaining).status
        if status is SolveStatus.TIMEOUT:
            raise MusTimedOut("timeout during core minimization")
        return status

    if status_of(range(len(hard))) is not SolveStatus.UNSAT:
        raise NotUnsat("instance is satisfiable")
    core = list(range(len(hard)))
    i, step = 0, 1
    while i < len(core):
        step = min(step, len(core) - i)
        trial = core[:i] + core[i + step:]
        if status_of(trial) is SolveStatus.UNSAT:
            core = trial
            step *= 2
        elif step > 1:
            step //= 2
        else:
            i += 1
    for i in range(len(core)):
        if status_of(core[:i] + core[i + 1:]) is not SolveStatus.SAT:
            raise SatCoreError("internal error: core failed minimality check")
    return MusResult(core=tuple(core))


# ---------------------------------------------------------------------------
# DIMACS serialization


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
        lines += [" ".join(map(str, c + (0,))) for c in hard]
    elif kind == "wcnf":
        top = len(soft) + 1
        lines = [f"p wcnf {num_vars} {len(hard) + len(soft)} {top}"]
        lines += [" ".join(map(str, (top,) + c + (0,))) for c in hard]
        lines += [" ".join(map(str, (1,) + c + (0,))) for c in soft]
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
