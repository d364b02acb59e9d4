"""Migration pipeline.

Builds the requested encoding and objective over a universe, solves with
the embedded solver or an external executable, decodes the package atoms
back into a candidate repository, re-verifies admissibility from the raw
model data, and renders reports, hints and non-migration explanations.
T′ is a set of universe ids from the decode to the report:
Packages appear only in parsed input, reports and explanations.

Every search made for a request (each closure decision, solve round,
installability query and core extraction) reads its one ``deadline``
and raises ``satcore.SolveTimedOut`` past it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import InitVar, dataclass
from itertools import islice

from . import encoder, repo, satcore
from .closure import ClosureIndex
from .encoder import EncodedProblem
from .repo import Package, PolicyRules, ResolvedRules, Universe
from .satcore import SolveStatus, SolveTimedOut

MODES = ("max", "min-nontrivial", "target")


class EngineError(Exception):
    """Base class for pipeline failures."""


class Unsolvable(EngineError):
    """Hard clauses are unsatisfiable.

    ``problem`` is the encoding whose hard clauses have no model, with the
    objective attached, which may be the target clause alone (on the
    target's closure). Without a target clause this indicates a malformed
    policy, since the trivial migration satisfies everything else; in
    target mode it means the requested package cannot migrate, and
    ``explain_non_migration`` takes ``problem`` to find out why.
    """

    def __init__(self, message: str, problem: EncodedProblem):
        super().__init__(message)
        self.problem = problem


class ActuallySolvable(EngineError):
    """An explanation was requested for a package that does migrate."""


class VerificationFailed(EngineError):
    """The decoded repository failed the independent admissibility check."""


class OptimumMismatch(EngineError):
    """An external solver's claims disagree with the engine's own recount."""


@dataclass
class Budgets:
    """``bench/reference.py``'s budget: seconds from the request's creation."""
    pmax_timeout: float


@dataclass
class MigrationRequest:
    mode: str = "max"
    target: Package | None = None
    encoding: str = "p5-pruned"
    policy: PolicyRules | None = None
    solver_command: list[str] | None = None
    deadline: float = math.inf
    budgets: InitVar[Budgets | None] = None

    def __post_init__(self, budgets):
        if budgets is not None:
            self.deadline = time.monotonic() + budgets.pmax_timeout
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "target" and self.target is None:
            raise ValueError("target mode needs a target package")


@dataclass
class Explanation:
    package: Package
    core: tuple[int, ...]
    facts: tuple[str, ...]

    def render(self) -> str:
        lines = [f"{self.package} cannot migrate; minimal blocking facts:"]
        lines += [f"  - {fact}" for fact in self.facts]
        return "\n".join(lines) + "\n"


@dataclass
class MigrationResult:
    t_prime: frozenset[Package]
    migrated_in: tuple[Package, ...]
    removed: tuple[Package, ...]
    delta: int
    optimum: int
    externally_claimed: bool
    encoding_id: str
    warnings: tuple[str, ...] = ()


def attach_objective(req: MigrationRequest, u: Universe, problem: EncodedProblem):
    """Attach the mode's hard additions and soft units to the problem:
    ``encoder.soft_max``'s units in max mode; their disjunction, the
    nontriviality clause, in min-nontrivial mode and the target clause in
    target mode, each with the units inverted."""
    units = encoder.soft_max(u)
    if req.mode == "max":
        problem.soft = units
        return
    if req.mode == "min-nontrivial":
        if not units:
            raise encoder.NoChangeCandidates("testing and unstable offer no change")
        problem.add([lit for lit, in units], ("nt",))
    else:
        problem.add(*encoder.target_clause(encoder.check_target(req.target, u)))
    problem.soft = [(-lit,) for lit, in units]


def decode_solution(true_atoms, atoms: encoder.AtomTable) -> frozenset[int]:
    """Project an assignment onto the package atoms, as package ids;
    installation atoms are ignored."""
    n = atoms.num_package_atoms
    return frozenset(atom - 1 for atom in true_atoms if atom <= n)


def _restore_shared(t_prime: frozenset[int], u: Universe,
                    rules: ResolvedRules,
                    deadline: float = math.inf) -> frozenset[int]:
    """Re-add dropped packages that carry no objective weight.

    Packages present in both repositories are invisible to every soft set,
    so solver tie-breaking may omit them although keeping them costs
    nothing. Re-adding such a package preserves the objective value and the
    installability of everything already chosen (growing a repository never
    invalidates an installation witness), so only the package's own
    installability (``repo.installable_in``), uniqueness and the resolved
    policy rules need re-checking. T′ and the answer are sets of u's ids.
    """
    packages = u.order
    chosen = set(t_prime)
    names = {packages[i].name for i in chosen}
    for i in sorted((u.testing_ids & u.unstable_ids) - chosen):
        name = packages[i].name
        if name in names:
            continue
        chosen.add(i)
        if repo.installable_in(i, chosen, u, deadline) and \
                repo.policy_violation(chosen, rules) is None:
            names.add(name)
        else:
            chosen.remove(i)
    return frozenset(chosen)


def _solve(problem: EncodedProblem, deadline: float,
           command: list[str] | None = None) -> satcore.SolveResult:
    """Solve the problem with the embedded solver, or with the external
    command, by ``deadline``; raise when its hard clauses have no model or
    the time runs out."""
    if command is None:
        result = satcore.solve_pmaxsat(problem.hard, problem.soft,
                                       num_vars=problem.num_vars,
                                       deadline=deadline)
    else:
        result = satcore.run_external(command, problem.hard, problem.soft,
                                      num_vars=problem.num_vars, kind="wcnf",
                                      deadline=deadline)
    if result.status is SolveStatus.UNSAT:
        raise Unsolvable(f"hard clauses of {problem.encoding_id} are unsatisfiable",
                         problem)
    if result.status is SolveStatus.TIMEOUT:
        raise SolveTimedOut("solver ran past the deadline")
    return result


def _solve_verified(req: MigrationRequest, u: Universe, idx: ClosureIndex,
                    problem: EncodedProblem, rules: ResolvedRules
                    ) -> tuple[frozenset[int], int, satcore.SolveResult]:
    """Solve the problem by rounds, all by the request's deadline.

    Each round solves the problem, checks the solver's claims against a
    recount of the soft clauses, decodes the model, restores the shared
    packages and re-verifies the result from the universe and the
    request's resolved policy ``rules`` alone: the index serves the
    encoding and ``encoder.track_contexts`` only. While a member of the
    result is not installable, the round tracks the contexts of every
    such member (``encoder.track_contexts``) and the next round solves
    again. Returns the last round's T′, as ids, its recount of satisfied
    soft clauses and the solver's result: ``_report`` builds the
    Packages of an answer that is kept.

    The answer is the requested encoding's optimum. Every clause that a
    round holds is one of the full instance's or implied by it, so each
    round relaxes the full instance, and its optimum is at least the
    true one. An answer that passes the check is admissible, and
    restoring the shared packages changes no soft unit, so it attains
    that optimum. The rounds end: a member that is not installable has a
    conflict inside its closure, since every member meets each of its
    disjunctions in the answer, so the full encoding tracks its context,
    and a context that a round tracks installs its package. A round
    whose hard clauses have no model shows that the full instance has
    none either.
    """
    while True:
        result = _solve(problem, req.deadline, req.solver_command)
        recount = satcore.count_satisfied(problem.soft, result.true_atoms)
        if result.claimed_cost is not None and \
                len(problem.soft) - recount != result.claimed_cost:
            raise OptimumMismatch(
                f"solver claimed cost {result.claimed_cost}, recount implies"
                f" {len(problem.soft) - recount}")
        chosen = _restore_shared(
            decode_solution(result.true_atoms, problem.atoms), u, rules,
            req.deadline)
        verdict = repo.is_admissible(chosen, u, rules, req.deadline)
        if verdict:
            break
        if verdict.kind != "trimmedness" or not encoder.track_contexts(
                problem, idx, verdict.subjects):
            raise VerificationFailed(
                f"decoded repository failed verification: {verdict.detail}")
    return chosen, recount, result


def _report(u: Universe, problem: EncodedProblem, chosen: frozenset[int],
            optimum: int, solved: satcore.SolveResult,
            warnings: tuple[str, ...] = ()) -> MigrationResult:
    """T′ (u's ids) as a result, with the warnings, then the solver's."""
    if solved.status is SolveStatus.SAT:
        warnings += ("external solver returned a model without an"
                     " optimality claim",)
    packages = u.order.__getitem__
    migrated_in = tuple(map(packages, sorted(chosen - u.testing_ids)))
    removed = tuple(map(packages, sorted(u.testing_ids - chosen)))
    return MigrationResult(
        t_prime=frozenset(map(packages, chosen)),
        migrated_in=migrated_in,
        removed=removed,
        delta=len(migrated_in) + len(removed),
        optimum=optimum,
        externally_claimed=solved.externally_claimed,
        encoding_id=problem.encoding_id,
        warnings=warnings,
    )


def _decide_in_closure(req: MigrationRequest, u: Universe):
    """Raise ``Unsolvable`` when p = req.target cannot migrate in its
    closure's sub-universe (``repo.closure_universe``), with that
    encoding, p's target clause and no soft units. The request has no
    policy, and its encoding is not p4.

    The decision is exact. Without a policy, p migrates exactly when some
    admissible T′ holds p, and then p has a healthy installation W inside
    T′. Cut down to closure(p), W stays one, since every dependency of a
    member of closure(p) lies in closure(p). W is itself admissible: it
    is an installation of each of its members, and its names are unique
    as T′'s are. It lies in the sub-universe, where every member keeps
    its relations, so an admissible T′ of the sub-universe is one of the
    whole. So p migrates exactly when it does in the sub-universe, and as
    the encodings are exact, the slice's target-mode instance is UNSAT
    exactly when the full one is. A policy's rules may reach outside
    closure(p), so a policy's request is decided on the full instance.

    The slice's core is also the full instance's, for every encoding but
    p4. The slice's clauses are the full instance's clauses over the
    package atoms and the contexts of closure(p), in the same order,
    since ids are renumbered in order and a context's members and their
    clauses read only its own closure (p2's contexts, which track every
    package, keep their clauses over closure(p)). Every other clause of
    the full instance holds when every atom outside the slice is false,
    so a set of slice clauses is satisfiable exactly when it is together
    with any of them, and deletion in clause order keeps the same clauses
    in both. p4 reads more than the closure: a package is easy there when
    no package in its closure has a conflict, and a conflict with a
    partner outside closure(p) is not in the slice. So the slice's p4
    instance may track fewer members, and its core, a minimal core of
    that exact instance, may name other facts than the full instance's:
    a p4 request is decided on the full instance too.

    The encoding's refusals and then p's candidacy are judged on the
    whole universe, as the full solve judges them, and only there. The
    slice is decided by the embedded solver, whatever
    ``req.solver_command`` is, by the request's deadline.
    """
    encoder.encoding_scheme(u, req.encoding)  # the refusals, on all of u
    encoder.check_target(req.target, u)
    sub = repo.closure_universe(u, req.target)
    problem = encoder.build_encoding(sub, None, req.encoding)
    problem.add(*encoder.target_clause(repo.package_id(sub.order, req.target)))
    _solve(problem, req.deadline)


def solve_migration(req: MigrationRequest, u: Universe) -> MigrationResult:
    return next(_verified_answers(req, u))


def alternative_optima(req: MigrationRequest, u: Universe,
                       limit: int) -> list[MigrationResult]:
    """The first answer and up to `limit` alternatives to it."""
    return list(islice(_verified_answers(req, u), limit + 1))


def _verified_answers(req: MigrationRequest, u: Universe
                      ) -> Iterator[MigrationResult]:
    """The request's verified answers: its optimum, then alternatives with
    the same objective value. It owns the request's state: the closure
    index, the encoding and the policy, resolved once
    (``repo.PolicyRules.literals``) after the build and before any round.

    The solve starts from the lazy encoding (``encoder.build_encoding``),
    which tracks no context, and ``_solve_verified`` adds contexts as its
    rounds need them. When the first answer's rounds find no model,
    ``Unsolvable`` carries the full instance, built then and not solved,
    with the objective attached: its clauses are the ones a core names.
    Only the first answer is checked against testing's assumptions: their
    violations come first among its warnings. A solve that raises runs no
    check, since nothing would print its warnings.

    Each alternative adds a blocking clause over the candidate package
    atoms (id i has atom i + 1) that excludes the last answer's T′, and
    is solved and verified as the first answer is, by the same deadline,
    on the problem with the contexts that earlier rounds tracked. The
    answers end at the first alternative that has no model, runs out of
    time or misses the optimum.
    """
    if req.mode == "target" and req.policy is None and req.encoding != "p4":
        _decide_in_closure(req, u)
    idx = ClosureIndex(u)
    problem = encoder.build_encoding(u, idx, req.encoding, req.policy,
                                     lazy=True)
    attach_objective(req, u, problem)
    rules = () if req.policy is None else req.policy.literals(u.order)
    try:
        chosen, optimum, solved = _solve_verified(req, u, idx, problem, rules)
    except Unsolvable as exc:
        full = encoder.build_encoding(u, idx, req.encoding, req.policy)
        attach_objective(req, u, full)
        raise Unsolvable(str(exc), full) from None
    violations = repo.check_testing(u, req.deadline)
    yield _report(u, problem, chosen, optimum, solved, tuple(
        f"testing violates assumptions: {violation.detail}"
        for violation in violations))
    candidates = sorted(abs(lit) for lit, in problem.soft)  # atom order
    while candidates:
        problem.add([-atom if atom - 1 in chosen else atom
                     for atom in candidates], ("blocking",))
        try:
            chosen, recount, solved = _solve_verified(req, u, idx, problem,
                                                      rules)
        except (Unsolvable, SolveTimedOut):
            return
        if recount != optimum:
            return
        yield _report(u, problem, chosen, optimum, solved)


# ---------------------------------------------------------------------------
# Explanations


# Statements for the provenance families whose fields are all ids, with
# {k} the package of field k.
_STATEMENTS = {
    "u": "only one version of '{0.name}' may be present: {0} vs {1}",
    "e": "{1} can only join the installation for {0} if it is in the repository",
    "i": "{0} needs an installation containing itself",
    "c": "{1} conflicts with {2} (installation for {0})",
    "nt": "at least one candidate package must change",
    "target": "the migration of {0} was requested",
    "inst-target": "{0} must be part of the installation",
    "inst-conflict": "{0} conflicts with {1}",
}


def describe_clause(info: tuple, packages: tuple[Package, ...]) -> str:
    """Render one clause's provenance as a domain-level statement.

    Provenance names packages by universe id, and this is the one place
    where ``packages`` (the universe's ``order``) turns them back.
    """
    family, *fields = info
    if family == "v":
        return "policy {}: {}".format(*fields)
    if family in ("d", "inst-dep"):
        *context, owner, targets = fields  # only d names a context
        options = ", ".join(str(packages[q]) for q in targets) or "nothing"
        text = f"{packages[owner]} requires one of [{options}]"
        if family == "inst-dep":
            return text
        if context == [None]:
            return text + " in the repository"
        return f"{text} in the installation for {packages[context[0]]}"
    if family not in _STATEMENTS:
        return f"constraint {family}"
    return _STATEMENTS[family].format(*(packages[i] for i in fields))


def explain_non_migration(p: Package, problem: EncodedProblem,
                          deadline: float = math.inf) -> Explanation:
    """Minimal unsatisfiable core of ``problem``'s hard clauses, mapped back
    to domain statements via the clauses' provenance (``problem.info``).

    ``problem`` is an unsatisfiable encoding whose hard clauses end with
    p's target clause: the one a target-mode solve raised ``Unsolvable``
    with, over p's closure or the whole universe; the core extraction
    runs by ``deadline``.
    """
    try:
        mus = satcore.extract_mus(problem.hard, num_vars=problem.num_vars,
                                  deadline=deadline)
    except satcore.NotUnsat:
        raise ActuallySolvable(f"{p} migrates; nothing to explain") from None
    facts = tuple(describe_clause(problem.info[i], problem.atoms.packages)
                  for i in mus.core)
    return Explanation(package=p, core=mus.core, facts=facts)


def explain_target(req: MigrationRequest, u: Universe
                   ) -> Explanation | MigrationResult:
    """Why req.target cannot migrate, or its minimal migration when it can;
    req is a target-mode request. This is the target-mode solve, and the
    core of the encoding it finds unsatisfiable, which is the closure's
    when the solve decides the target there."""
    try:
        return solve_migration(req, u)
    except Unsolvable as exc:
        return explain_non_migration(req.target, exc.problem, req.deadline)


# ---------------------------------------------------------------------------
# Rendering


def render_hints(result: MigrationResult) -> str:
    """Hint lines for the incumbent migration tooling.

    One `easy` line lists everything that migrates (a version replacement is
    implied by the incoming package); `remove` lines name removals with no
    incoming replacement.
    """
    lines = []
    if result.migrated_in:
        lines.append("easy " + " ".join(str(p) for p in result.migrated_in))
    replaced = {p.name for p in result.migrated_in}
    lines += [f"remove {p}" for p in result.removed if p.name not in replaced]
    return "".join(line + "\n" for line in lines)


def render_report(result: MigrationResult) -> str:
    t_prime = sorted(result.t_prime)
    lines = [
        f"encoding: {result.encoding_id}",
        f"delta: {result.delta}",
        "optimum: {}{}".format(result.optimum,
                               " (externally claimed)" if result.externally_claimed
                               else ""),
        "migrated-in: " + (" ".join(map(str, result.migrated_in)) or "(none)"),
        "removed: " + (" ".join(map(str, result.removed)) or "(none)"),
        "t-prime: " + (" ".join(map(str, t_prime)) or "(empty)"),
        "verified: yes",
    ]
    lines += [f"warning: {w}" for w in result.warnings]
    return "\n".join(lines) + "\n"


def structured_report(result: MigrationResult) -> dict:
    return {
        "t_prime": [str(p) for p in sorted(result.t_prime)],
        "migrated_in": [str(p) for p in result.migrated_in],
        "removed": [str(p) for p in result.removed],
        "delta": result.delta,
        "verified": True,
        "optimum": {"count": result.optimum,
                    "externally_claimed": result.externally_claimed},
        "explanation": None,
        "encoding": result.encoding_id,
        "warnings": list(result.warnings),
        "hints": render_hints(result),
    }


def dump_structured(document: dict) -> str:
    import json  # only structured output needs it: not at start-up
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
