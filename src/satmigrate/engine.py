"""Migration pipeline.

Builds the requested encoding and objective over a universe, solves with
the embedded solver or an external executable, decodes the package atoms
back into a candidate repository, re-verifies admissibility from the raw
model data, and renders reports, hints and non-migration explanations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import encoder, repo, satcore
from .closure import ClosureIndex
from .encoder import EncodedProblem, PolicyRules
from .repo import Package, Universe
from .satcore import SolveStatus

MODES = ("max", "min-nontrivial", "target")


class EngineError(Exception):
    """Base class for pipeline failures."""


class Unsolvable(EngineError):
    """Hard clauses are unsatisfiable.

    ``problem`` is the encoding whose hard clauses have no model, with the
    objective attached. Without a target clause this indicates a malformed
    policy, since the trivial migration satisfies everything else; in
    target mode it means the requested package cannot migrate, and
    ``explain_non_migration`` takes ``problem`` to find out why.
    """

    def __init__(self, message: str, problem: EncodedProblem):
        super().__init__(message)
        self.problem = problem


class SolveTimedOut(EngineError):
    pass


class ActuallySolvable(EngineError):
    """An explanation was requested for a package that does migrate."""


class RefuseUnverified(EngineError):
    """Hints were requested for a result that failed verification."""


class VerificationFailed(EngineError):
    """The decoded repository failed the independent admissibility check."""


class OptimumMismatch(EngineError):
    """An external solver's claims disagree with the engine's own recount."""


@dataclass
class Budgets:
    sat_timeout: float = satcore.DEFAULT_SAT_TIMEOUT
    pmax_timeout: float = satcore.DEFAULT_PMAX_TIMEOUT


@dataclass
class MigrationRequest:
    mode: str = "max"
    target: Package | None = None
    encoding: str = "p5-pruned"
    policy: PolicyRules | None = None
    solver_command: list[str] | None = None
    budgets: Budgets = field(default_factory=Budgets)

    def __post_init__(self):
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
    verified: bool
    optimum: int
    externally_claimed: bool
    encoding_id: str
    warnings: tuple[str, ...] = ()


def attach_objective(req: MigrationRequest, u: Universe, problem: EncodedProblem):
    """Attach the mode's hard additions and soft units to the problem."""
    atoms = problem.atoms
    if req.mode == "max":
        problem.soft = encoder.soft_max(u, atoms)
        return
    if req.mode == "min-nontrivial":
        nontrivial, problem.soft = encoder.soft_min_with_nontriviality(u, atoms)
        problem.add(*nontrivial)
        return
    problem.add(*encoder.target_clause(req.target, u, atoms))
    problem.soft = encoder.soft_min_units(u, atoms)


def decode_solution(true_atoms, atoms: encoder.AtomTable) -> frozenset[Package]:
    """Project an assignment onto the package atoms; installation atoms are
    ignored."""
    return frozenset(p for i, p in enumerate(atoms.packages, start=1)
                     if i in true_atoms)


def _restore_shared(t_prime: frozenset[Package], u: Universe, policy,
                    idx: ClosureIndex) -> frozenset[Package]:
    """Re-add dropped packages that carry no objective weight.

    Packages present in both repositories are invisible to every soft set,
    so solver tie-breaking may omit them although keeping them costs
    nothing. Re-adding such a package preserves the objective value and the
    installability of everything already chosen (growing a repository never
    invalidates an installation witness), so only the package's own
    installability (``repo.installable_in``), uniqueness and the policy
    need re-checking.
    """
    current = set(t_prime)
    chosen = idx.id_set(t_prime)
    names = {p.name for p in current}
    for i in sorted(idx.id_set(u.testing & u.unstable) - chosen):
        p = idx.packages[i]
        if p.name in names:
            continue
        chosen.add(i)
        if repo.installable_in(i, chosen, idx) and (
                policy is None
                or repo.policy_satisfied(frozenset(current | {p}), policy)):
            current.add(p)
            names.add(p.name)
        else:
            chosen.remove(i)
    return frozenset(current)


def _solve_verified(req: MigrationRequest, u: Universe, idx: ClosureIndex,
                    problem: EncodedProblem) -> MigrationResult:
    """Solve the problem, check the solver's claims against a recount of
    the soft clauses, decode the model, restore the shared packages and
    re-verify the result from the raw model data. The result's warnings
    are the solve's own."""
    if req.solver_command is None:
        result = satcore.solve_pmaxsat(problem.hard, problem.soft,
                                       num_vars=problem.num_vars,
                                       timeout=req.budgets.pmax_timeout)
    else:
        result = satcore.run_external(req.solver_command, problem.hard,
                                      problem.soft, num_vars=problem.num_vars,
                                      kind="wcnf",
                                      timeout=req.budgets.pmax_timeout)
    if result.status is SolveStatus.UNSAT:
        raise Unsolvable(f"hard clauses of {problem.encoding_id} are unsatisfiable",
                         problem)
    if result.status is SolveStatus.TIMEOUT:
        raise SolveTimedOut(f"solver exceeded {req.budgets.pmax_timeout}s")
    recount = satcore.count_satisfied(problem.soft, result.true_atoms)
    if result.satisfied_soft is not None and result.satisfied_soft != recount:
        raise OptimumMismatch(
            f"solver reported {result.satisfied_soft} satisfied soft clauses,"
            f" recount says {recount}")
    if result.claimed_cost is not None and \
            len(problem.soft) - recount != result.claimed_cost:
        raise OptimumMismatch(
            f"solver claimed cost {result.claimed_cost}, recount implies"
            f" {len(problem.soft) - recount}")
    warnings = ()
    if result.status is SolveStatus.SAT:
        warnings = ("external solver returned a model without an"
                    " optimality claim",)
    t_prime = _restore_shared(decode_solution(result.true_atoms, problem.atoms),
                              u, req.policy, idx)
    verdict = repo.is_admissible(t_prime, u, req.policy, idx)
    if not verdict:
        raise VerificationFailed(
            f"decoded repository failed verification: {verdict.detail}")
    migrated_in = tuple(sorted(t_prime - u.testing))
    removed = tuple(sorted(u.testing - t_prime))
    return MigrationResult(
        t_prime=t_prime,
        migrated_in=migrated_in,
        removed=removed,
        delta=len(migrated_in) + len(removed),
        verified=True,
        optimum=recount,
        externally_claimed=result.externally_claimed,
        encoding_id=problem.encoding_id,
        warnings=warnings,
    )


def solve_migration(req: MigrationRequest, u: Universe) -> MigrationResult:
    return _solve_encoded(req, u)[0]


def _solve_encoded(req: MigrationRequest, u: Universe
                   ) -> tuple[MigrationResult, EncodedProblem, ClosureIndex]:
    """solve_migration, also returning the encoding it solved (objective
    attached) and the closure index it built, for further solves.

    Only a solved answer is checked against testing's assumptions: their
    violations come first among its warnings. A solve that raises runs no
    check, since nothing would print its warnings."""
    idx = ClosureIndex(u)
    problem = encoder.build_encoding(u, idx, req.encoding, req.policy)
    attach_objective(req, u, problem)
    result = _solve_verified(req, u, idx, problem)
    result.warnings = tuple(f"testing violates assumptions: {violation.detail}"
                            for violation in repo.check_testing(u, idx)
                            ) + result.warnings
    return result, problem, idx


def alternative_optima(req: MigrationRequest, u: Universe,
                       limit: int) -> list[MigrationResult]:
    """Diagnostic re-solving: exclude each found optimum with a blocking
    clause over the candidate package atoms, up to `limit` alternatives with
    the same objective value. Every alternative is solved and verified as
    the first result is; the search stops at the first solve that finds no
    model or runs out of time."""
    first, problem, idx = _solve_encoded(req, u)
    results = [first]
    incoming, outgoing = encoder.migration_candidates(u)
    candidates = sorted(incoming + outgoing)  # in atom order
    pkg = problem.atoms.pkg
    while candidates and len(results) < limit + 1:
        blocked = results[-1].t_prime
        problem.add([-pkg(p) if p in blocked else pkg(p) for p in candidates],
                    ("blocking",))
        try:
            result = _solve_verified(req, u, idx, problem)
        except (Unsolvable, SolveTimedOut):
            break
        if result.optimum != first.optimum:
            break
        results.append(result)
    return results


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

    Provenance names packages by ``ClosureIndex`` id, and this is the one
    place where ``packages`` (the index's sorted packages) turns them back.
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
                          timeout: float) -> Explanation:
    """Minimal unsatisfiable core of ``problem``'s hard clauses, mapped back
    to domain statements via the per-clause provenance tags.

    ``problem`` is an unsatisfiable encoding whose hard clauses end with
    p's target clause: the one a target-mode solve raised ``Unsolvable``
    with, or the one over p's closure that ``explain_target`` decides
    first; ``timeout`` bounds the core extraction.
    """
    try:
        mus = satcore.extract_mus(problem.hard, num_vars=problem.num_vars,
                                  timeout=timeout)
    except satcore.NotUnsat:
        raise ActuallySolvable(f"{p} migrates; nothing to explain") from None
    except satcore.MusTimedOut as exc:
        raise SolveTimedOut(str(exc)) from None
    facts = tuple(describe_clause(problem.info[i], problem.atoms.packages)
                  for i in mus.core)
    return Explanation(package=p, core=mus.core, facts=facts)


def _explain_in_closure(req: MigrationRequest, u: Universe
                        ) -> Explanation | None:
    """Why p = req.target cannot migrate, decided on the sub-universe of
    its closure alone (``repo.closure_universe``); None when p migrates
    there. The request has no policy.

    The answer is exact. Without a policy, p migrates exactly when some
    admissible T′ holds p, and then p has a healthy installation W inside
    T′. Cut down to closure(p), W stays one, since every dependency of a
    member of closure(p) lies in closure(p). W is itself admissible: it
    is an installation of each of its members, and its names are unique
    as T′'s are. It lies in the sub-universe, where every member keeps
    its relations, so an admissible T′ of the sub-universe is one of the
    whole. So p migrates exactly when it does in the sub-universe, and as
    the encodings are exact, the slice's target-mode instance is UNSAT
    exactly when the full one is.

    The core is also the full instance's, except under p4. The slice's
    clauses are the full instance's clauses over the package atoms and
    the contexts of closure(p), in the same order, since ids are
    renumbered in order and a context's members and their clauses read
    only its own closure (p2's contexts, which track every package, keep
    their clauses over closure(p)). Every other clause of the full
    instance holds when every atom outside the slice is false, so a set
    of slice clauses is satisfiable exactly when it is together with any
    of them, and deletion in clause order keeps the same clauses in both.
    p4 reads more than the closure: a package is easy there when no
    package in its closure has a conflict, and a conflict with a partner
    outside closure(p) is not in the slice. So the slice's p4 instance
    may track fewer members, and its core, a minimal core of that exact
    instance, may name other facts than the full instance's.

    The encoding's refusals are judged on the whole universe, as the full
    solve judges them. The slice is decided like the target-mode solve,
    through ``solve_pmaxsat``, here with no soft units, within the SAT
    budget that the core extraction gets too.
    """
    encoder.encoding_scheme(u, req.encoding)  # the refusals, on all of u
    sub = repo.closure_universe(u, req.target)
    problem = encoder.build_encoding(sub, None, req.encoding)
    problem.add(*encoder.target_clause(req.target, sub, problem.atoms))
    timeout = req.budgets.sat_timeout
    result = satcore.solve_pmaxsat(problem.hard, (), num_vars=problem.num_vars,
                                   timeout=timeout)
    if result.status is SolveStatus.TIMEOUT:
        raise SolveTimedOut(f"solver exceeded {timeout}s")
    if result.status is not SolveStatus.UNSAT:
        return None
    return explain_non_migration(req.target, problem, timeout)


def explain_target(req: MigrationRequest, u: Universe
                   ) -> Explanation | MigrationResult:
    """Why req.target cannot migrate, or its minimal migration when it can;
    req is a target-mode request.

    Without a policy the target is first decided on its closure
    (``_explain_in_closure``). A target that migrates there gets the full
    target-mode solve, which reports its delta, and so does every target
    under a policy, whose rules may reach outside its closure.
    """
    if req.policy is None:
        explanation = _explain_in_closure(req, u)
        if explanation is not None:
            return explanation
    try:
        return solve_migration(req, u)
    except Unsolvable as exc:
        return explain_non_migration(req.target, exc.problem,
                                     req.budgets.sat_timeout)


# ---------------------------------------------------------------------------
# Rendering


def render_hints(result: MigrationResult) -> str:
    """Hint lines for the incumbent migration tooling.

    One `easy` line lists everything that migrates (a version replacement is
    implied by the incoming package); `remove` lines name removals with no
    incoming replacement.
    """
    if not result.verified:
        raise RefuseUnverified("refusing to render hints for unverified result")
    lines = []
    if result.migrated_in:
        lines.append("easy " + " ".join(str(p) for p in result.migrated_in))
    replaced = {p.name for p in result.migrated_in}
    lines += [f"remove {p}" for p in result.removed if p.name not in replaced]
    return "".join(line + "\n" for line in lines)


def render_report(result: MigrationResult) -> str:
    lines = [
        f"encoding: {result.encoding_id}",
        f"delta: {result.delta}",
        "optimum: {}{}".format(result.optimum,
                               " (externally claimed)" if result.externally_claimed
                               else ""),
        "migrated-in: " + (" ".join(map(str, result.migrated_in)) or "(none)"),
        "removed: " + (" ".join(map(str, result.removed)) or "(none)"),
        "t-prime: " + (" ".join(map(str, sorted(result.t_prime))) or "(empty)"),
        f"verified: {'yes' if result.verified else 'no'}",
    ]
    lines += [f"warning: {w}" for w in result.warnings]
    return "\n".join(lines) + "\n"


def structured_report(result: MigrationResult) -> dict:
    return {
        "t_prime": [str(p) for p in sorted(result.t_prime)],
        "migrated_in": [str(p) for p in result.migrated_in],
        "removed": [str(p) for p in result.removed],
        "delta": result.delta,
        "verified": result.verified,
        "optimum": {"count": result.optimum,
                    "externally_claimed": result.externally_claimed},
        "explanation": None,
        "encoding": result.encoding_id,
        "warnings": list(result.warnings),
        "hints": render_hints(result) if result.verified else None,
    }


def dump_structured(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
