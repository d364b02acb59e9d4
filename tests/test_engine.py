from __future__ import annotations

import json
import math
import random
import re
import stat
import sys
import time
from types import SimpleNamespace

import pytest

import satmigrate.closure as closure_mod
import satmigrate.encoder as encoder_mod
import satmigrate.satcore as satcore_mod
from satmigrate import cli, engine, repo
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import parse_packages_stream
from satmigrate.encoder import (NotAMigrationCandidate, build_encoding,
                                check_target, target_clause)
from satmigrate.engine import (ActuallySolvable,
                               MigrationRequest, OptimumMismatch,
                               SolveTimedOut, Unsolvable,
                               alternative_optima, decode_solution,
                               dump_structured, explain_non_migration,
                               render_hints,
                               render_report, solve_migration,
                               structured_report)
from satmigrate.repo import Package, PolicyRules, is_admissible, package_id

from . import oracle
from .generators import (P, clustered_universe, id_set, pkg_atom,
                         random_universe,
                         tiny_universe, with_dead_ends)
from .oracle import admissible_sets, deletion_mus


def _upgrade_universe():
    return tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])


def _admissible(t_prime, u, policy=None):
    """repo.is_admissible on a T' of Packages, such as a result's, under
    the policy's rules resolved on u."""
    rules = () if policy is None else policy.literals(u.order)
    return is_admissible(id_set(u, t_prime), u, rules)


@pytest.fixture
def built(monkeypatch) -> list:
    """Every encoding that encoder.build_encoding returns, in build order:
    after a solve, the last one is the encoding its rounds solved, with
    the contexts they tracked."""
    problems = []
    build = encoder_mod.build_encoding

    def probe(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(encoder_mod, "build_encoding", probe)
    return problems


# -- solve_migration --------------------------------------------------------------

def test_simple_upgrade_max_mode():
    u = _upgrade_universe()
    # brute force over subsets: admissible are {}, {a/1}, {a/2}
    assert set(admissible_sets(u)) == {frozenset(), frozenset({P("a/1")}),
                                       frozenset({P("a/2")})}
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert result.t_prime == {P("a/2")}
    assert result.delta == 2
    assert result.optimum == 2
    assert _admissible(result.t_prime, u)


def test_encodings_agree_on_mid_scale_universes():
    # the embedded solver returns a result only for a proven optimum
    # (UNSAT and TIMEOUT raise), and each T' is re-checked admissible here
    rng = random.Random(83)
    for _ in range(12):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        optima = set()
        for encoding in ("p3", "p4", "p5-strict", "p5-pruned"):
            req = MigrationRequest(mode="max", encoding=encoding,
                                   deadline=time.monotonic() + 10.0)
            result = solve_migration(req, u)
            assert _admissible(result.t_prime, u)
            optima.add(result.optimum)
        assert len(optima) == 1, (size, optima)


def test_restore_shared_on_ids_matches_the_package_level_loop():
    rng = random.Random(89)
    restored = policy_mattered = 0
    for _ in range(12):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        shared = sorted(u.testing & u.unstable)
        # the shared packages a solver dropped, and a few candidates moved
        t_prime = frozenset(p for p in u.packages
                            if rng.random() < (0.4 if p in shared else 0.7))
        a, b, c = rng.sample(shared, 3)
        policy = PolicyRules(groups=[[(1, a), (1, b)]],
                             extra_clauses=[[(-1, c)]])
        answers = []
        for rules in (None, policy):
            expected = oracle.restore_shared(t_prime, u, rules)
            restored_ids = engine._restore_shared(
                id_set(u, t_prime), u,
                () if rules is None else rules.literals(u.order))
            assert restored_ids == id_set(u, expected)
            answers.append(expected)
        restored += len(answers[0] - t_prime)
        policy_mattered += answers[0] != answers[1]
    assert restored > 0 and policy_mattered > 0


def test_policy_is_checked_on_the_packages_it_names(monkeypatch):
    # a rule reads only whether its own packages are members, so resolving
    # the policy, for the encoder and for the rounds, looks up those
    # packages alone
    received = []
    original = repo.package_id

    def recording(packages, p):
        received.append(p)
        return original(packages, p)

    monkeypatch.setattr(repo, "package_id", recording)
    rng = random.Random(89)
    checked = 0
    for _ in range(4):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        a, b, c = rng.sample(sorted(u.testing & u.unstable), 3)
        policy = PolicyRules(groups=[[(1, a), (1, b)]],
                             extra_clauses=[[(-1, c)]])
        received.clear()
        result = solve_migration(MigrationRequest(policy=policy), u)
        assert set(received) <= {a, b, c}
        assert _admissible(result.t_prime, u, policy)
        checked += len(received)
    assert checked > 0


def test_one_round_turns_no_id_into_a_package(monkeypatch):
    # from the decode through the restore and the check, T' is a set of
    # ids: no Package is hashed and no Package is looked up as an id
    u = clustered_universe(random.Random(97), 200, conflicts=0)
    hashed, lookups, counting = [], [], [False]
    original_hash, original_package_id = Package.__hash__, repo.package_id

    def hash_(self):
        if counting[0]:
            hashed.append(self)
        return original_hash(self)

    def package_id(packages, p):
        if counting[0]:
            lookups.append(p)
        return original_package_id(packages, p)

    monkeypatch.setattr(Package, "__hash__", hash_)
    monkeypatch.setattr(repo, "package_id", package_id)
    calls = []
    for owner, name in ((engine, "decode_solution"),
                        (engine, "_restore_shared"), (repo, "is_admissible")):
        def counted(*args, original=getattr(owner, name), name=name):
            counting[0] = True
            try:
                result = original(*args)
            finally:
                counting[0] = False
            calls.append(result)
            return result

        monkeypatch.setattr(owner, name, counted)
    result = solve_migration(MigrationRequest(mode="max"), u)
    decoded, restored, verdict = calls  # one round, whose answer passes
    assert verdict and len(decoded) < len(restored) == len(result.t_prime)
    assert hashed == [] and lookups == []


def _packages_file(u, ids) -> str:
    """The packages of u with the given ids as a Packages file. Each
    dependency disjunction and conflict names its packages by exact
    version, and an empty disjunction names a package that is not there."""
    def exact(q):
        return f"{u.order[q].name} (= {u.order[q].version})"

    conflicts = {}
    for a, b in u.conflict_pairs:
        conflicts.setdefault(a, []).append(exact(b))
    text = ""
    for i in sorted(ids):
        text += f"Package: {u.order[i].name}\nVersion: {u.order[i].version}\n"
        if u.deps[i]:
            text += "Depends: " + ", ".join(
                " | ".join(map(exact, d)) or "missing" for d in u.deps[i]) + "\n"
        if i in conflicts:
            text += f"Conflicts: {', '.join(conflicts[i])}\n"
        text += "\n"
    return text


def _t_prime(report: str) -> list[str]:
    """The packages of a text report's first t-prime line."""
    return next(line for line in report.splitlines()
                if line.startswith("t-prime: ")).split()[1:]


def test_commands_hash_a_package_only_for_the_reported_t_prime(
        monkeypatch, tmp_path, capsys):
    # a command turns parsed input into ids by bisection and builds no
    # Package view of the universe: check, emit and a blocked explain hash
    # no Package, and migrate hashes each member of each reported T' once,
    # when it builds the result
    u = clustered_universe(random.Random(95), 200, conflicts=6)
    candidates = sorted(u.unstable_ids - u.testing_ids)
    blocked = next(i for i in candidates if () in u.deps[i])
    files = {"testing": u.testing_ids, "unstable": u.unstable_ids}
    for name, ids in files.items():
        (tmp_path / name).write_text(_packages_file(u, ids))
    assert repo.build_universe(*(
        parse_packages_stream((tmp_path / name).read_bytes())
        for name in files)) == u
    common = ["--testing", str(tmp_path / "testing"),
              "--unstable", str(tmp_path / "unstable")]
    hashed = [0]
    original_hash = Package.__hash__

    def hash_(self):
        hashed[0] += 1
        return original_hash(self)

    monkeypatch.setattr(Package, "__hash__", hash_)

    def run(*argv):
        hashed[0] = 0
        assert cli.main([*argv, *common]) in (cli.EXIT_OK, cli.EXIT_VIOLATIONS)
        out = capsys.readouterr().out
        return out, hashed[0], [len(line.split()) - 1 for line in out.splitlines()
                                if line.startswith("t-prime: ")]

    assert run("check")[1] == 0
    assert run("emit", str(tmp_path / "out.wcnf"))[1] == 0
    out, count, _ = run("explain", str(u.order[blocked]))
    assert "cannot migrate" in out and count == 0
    out, count, sizes = run("migrate")
    assert count == sum(sizes) and len(sizes) == 1 and sizes[0] > 100
    target = out.split("migrated-in: ")[1].split()[0]
    _, count, sizes = run("migrate", "--mode", "target", "--target", target)
    assert count == sum(sizes) and len(sizes) == 1
    # an alternative the search keeps builds its report, one it discards
    # builds none
    _, count, sizes = run("migrate", "--mode", "min", "--all-deltas", "1")
    assert count == sum(sizes) and len(sizes) == 2
    _, count, sizes = run("migrate", "--all-deltas", "1")
    assert count == sum(sizes) and len(sizes) == 1
    # under a policy that keeps a shared package of the optimum, the
    # restore and the check test the rule on ids and hash no Package
    kept = next(str(u.order[i]) for i in sorted(u.testing_ids & u.unstable_ids)
                if str(u.order[i]) in _t_prime(out))
    (tmp_path / "policy").write_text(f"clause: +{kept}\n")
    out, count, sizes = run("migrate", "--policy", str(tmp_path / "policy"))
    assert count == sum(sizes) and len(sizes) == 1 and kept in _t_prime(out)


def test_no_candidates_trivial_result():
    u = tiny_universe(["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert result.t_prime == u.testing
    assert result.delta == 0
    assert result.optimum == 0


def test_blocked_candidate_optimum_removes_outdated():
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    # a/2 cannot enter; the only soft gain is removing a/1
    assert result.t_prime == frozenset()
    assert result.optimum == 1
    assert result.delta == 1


def test_min_nontrivial_picks_smallest_change():
    u = tiny_universe(["a/1", "a/2", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "b/1"])
    result = solve_migration(MigrationRequest(mode="min-nontrivial"), u)
    assert result.t_prime == {P("b/1")}  # removing a/1 is a single change
    assert result.delta == 1


def test_target_mode_contains_target():
    u = tiny_universe(["a/1", "a/2", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "b/1"])
    result = solve_migration(
        MigrationRequest(mode="target", target=P("a/2")), u)
    assert P("a/2") in result.t_prime
    assert result.delta == 2  # a/2 in, a/1 out (uniqueness)


def test_every_encoding_agrees_on_the_fixture():
    u = tiny_universe(["a/1", "a/2", "b/1", "c/1"],
                      dep={"a/2": [["b/1", "c/1"]]},
                      conflicts=[("b/1", "c/1")],
                      testing=["a/1", "b/1"], unstable=["a/2", "b/1", "c/1"])
    deltas = {}
    for encoding in ("p2-oracle", "p3", "p4", "p5-strict", "p5-pruned"):
        result = solve_migration(MigrationRequest(mode="max",
                                                  encoding=encoding), u)
        deltas[encoding] = (result.optimum, result.delta)
    assert len(set(deltas.values())) == 1


def test_unsolvable_policy_raises():
    u = tiny_universe(["a/1", "broken/1"], dep={"broken/1": [[]]},
                      testing=["a/1"], unstable=["a/1", "broken/1"])
    policy = PolicyRules(extra_clauses=[[(1, P("broken/1"))]])
    with pytest.raises(Unsolvable):
        solve_migration(MigrationRequest(mode="max", policy=policy), u)


def test_broken_testing_reported_and_removed():
    u = tiny_universe(["a/1", "gone/1"], dep={"gone/1": [[]]},
                      testing=["a/1", "gone/1"], unstable=["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert any("gone/1" in w for w in result.warnings)
    assert P("gone/1") not in result.t_prime


def test_result_is_independently_verified():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert _admissible(result.t_prime, u).ok


def test_solve_migration_builds_the_closure_index_once(monkeypatch):
    built = []
    original = ClosureIndex.__init__

    def counting(self, universe):
        built.append(universe)
        original(self, universe)

    monkeypatch.setattr(ClosureIndex, "__init__", counting)
    u = tiny_universe(["a/1", "a/2", "b/1", "c/1"],
                      dep={"a/2": [["b/1", "c/1"]]},
                      conflicts=[("b/1", "c/1")],
                      testing=["a/1", "b/1"], unstable=["a/2", "b/1", "c/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert P("a/2") in result.t_prime
    assert len(built) == 1


def test_alternative_optima_enumerates_ties():
    # two independent incoming packages that conflict pairwise in testing
    u = tiny_universe(["x/1", "y/1", "z/1"],
                      dep={"x/1": [["z/1"]], "y/1": [["z/1"]]},
                      conflicts=[("x/1", "y/1")],
                      testing=["z/1"], unstable=["x/1", "y/1", "z/1"])
    # both {x,z} and {y,z} are optima with one migration each... but x and y
    # only conflict as installations; both can sit in T'. The real optimum
    # takes both, so only one optimum exists.
    results = alternative_optima(MigrationRequest(mode="max"), u, 3)
    assert results[0].t_prime == {P("x/1"), P("y/1"), P("z/1")}
    assert len(results) == 1


def test_alternative_optima_reports_equal_count_alternatives():
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    results = alternative_optima(MigrationRequest(mode="max"), u, 5)
    counts = {r.optimum for r in results}
    assert counts == {2}
    assert len(results) == 2  # a/2 or a/3 replaces a/1
    assert {frozenset(r.t_prime) for r in results} == {
        frozenset({P("a/2")}), frozenset({P("a/3")})}


def test_alternative_optima_solves_by_the_first_solves_deadline(monkeypatch):
    deadlines = []
    solve = satcore_mod.solve_pmaxsat

    def recording(hard, soft, num_vars, deadline):
        deadlines.append(deadline)
        return solve(hard, soft, num_vars=num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "solve_pmaxsat", recording)
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    deadline = time.monotonic() + 600.0
    results = alternative_optima(
        MigrationRequest(mode="max", deadline=deadline), u, 5)
    # the first solve, its one alternative, and the solve that finds none
    assert len(results) == 2
    assert deadlines == [deadline] * 3


def test_alternative_optima_stop_at_an_installability_timeout(monkeypatch):
    # the first answer is verified; the alternative's verification runs
    # out of time, which ends the list as a solve that runs out does
    verify = repo.is_admissible
    verified = []

    def verify_once(*args, **kwargs):
        chosen, u = args[:2]
        verified.append({u.order[i] for i in chosen})
        if len(verified) > 1:
            raise satcore_mod.SolveTimedOut("out of time")
        return verify(*args, **kwargs)

    monkeypatch.setattr(repo, "is_admissible", verify_once)
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    results = alternative_optima(MigrationRequest(mode="max"), u, 5)
    assert len(verified) == 2
    assert [r.t_prime for r in results] == [verified[0]]


def test_alternative_optima_builds_the_encoding_once(monkeypatch):
    from satmigrate import encoder

    built = []
    original = encoder.build_encoding

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(encoder, "build_encoding", counting)
    u = tiny_universe(["a/1", "a/2", "a/3", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "a/3", "b/1"])
    results = alternative_optima(MigrationRequest(mode="max"), u, 2)
    assert len(results) == 2
    assert len(built) == 1


@pytest.mark.parametrize("mode", ["min-nontrivial", "target"])
def test_alternative_optima_in_min_modes_match_the_oracle(mode):
    # the alternatives are the optima's distinct projections onto the
    # candidates, found by enumerating every admissible set, up to limit + 1
    rng = random.Random(31)
    stopped = {"limit": 0, "optima": 0}
    for _ in range(120):
        u = random_universe(rng, max_size=8)
        incoming = u.unstable - u.testing
        candidates = incoming | (u.testing - u.unstable)
        if not (incoming if mode == "target" else candidates):
            continue
        target = min(incoming) if mode == "target" else None
        changed = {}  # an eligible set's candidates -> how many change
        for t in admissible_sets(u):
            count = len((t ^ u.testing) & candidates)
            if count and (target is None or target in t):
                changed[t & candidates] = count
        req = MigrationRequest(mode=mode, target=target)
        limit = rng.randint(0, 2)
        if not changed:
            with pytest.raises(Unsolvable):
                alternative_optima(req, u, limit)
            continue
        fewest = min(changed.values())
        optimal = {t for t, count in changed.items() if count == fewest}
        results = alternative_optima(req, u, limit)
        assert len(results) == min(limit + 1, len(optimal)), u
        projections = {r.t_prime & candidates for r in results}
        assert len(projections) == len(results)
        assert projections <= optimal
        for r in results:
            assert _admissible(r.t_prime, u)
            assert r.optimum == len(candidates) - fewest
            assert target is None or target in r.t_prime
        stopped["limit" if len(optimal) > limit + 1 else "optima"] += 1
    assert min(stopped.values()) > 0, stopped


# -- solving by rounds --------------------------------------------------------------

def _two_round_universe():
    # x/2 needs both b/1 and c/1, which conflict: the first round, with
    # no context tracked, takes x/2 in, and only its context shows that
    # x/2 cannot be installed
    return tiny_universe(["b/1", "c/1", "x/1", "x/2"],
                         dep={"x/2": [["b/1"], ["c/1"]]},
                         conflicts=[("b/1", "c/1")],
                         testing=["b/1", "c/1", "x/1"],
                         unstable=["b/1", "c/1", "x/2"])


def _recording_rounds(monkeypatch) -> list:
    """Record the deadline of every solve_pmaxsat call; returns the list."""
    deadlines = []
    solve = satcore_mod.solve_pmaxsat

    def recording(hard, soft, num_vars, deadline):
        deadlines.append(deadline)
        return solve(hard, soft, num_vars=num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "solve_pmaxsat", recording)
    return deadlines


def test_rounds_share_one_pmax_deadline(monkeypatch):
    u = _two_round_universe()
    deadlines = _recording_rounds(monkeypatch)
    deadline = time.monotonic() + 50.0
    result = solve_migration(MigrationRequest(mode="max", deadline=deadline), u)
    assert P("x/2") not in result.t_prime
    assert deadlines == [deadline, deadline]


def test_a_round_after_the_deadline_times_out(monkeypatch, tmp_path, capsys):
    # the solver's clock passes the deadline once the first round is
    # verified, so the second round does no search; the command exits 3
    from satmigrate import cli

    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(satcore_mod, "time",
                        SimpleNamespace(monotonic=lambda: clock.now))
    verify = repo.is_admissible

    def verify_then_expire(*args, **kwargs):
        verdict = verify(*args, **kwargs)
        clock.now = math.inf
        return verdict

    monkeypatch.setattr(repo, "is_admissible", verify_then_expire)
    rounds = _recording_rounds(monkeypatch)
    with pytest.raises(SolveTimedOut):
        solve_migration(MigrationRequest(mode="max", deadline=5.0),
                        _two_round_universe())
    assert rounds == [5.0, 5.0]
    rounds.clear()
    clock.now = 0.0
    def stanza(name, version, *fields):
        return "\n".join((f"Package: {name}", f"Version: {version}",
                          *fields)) + "\n\n"

    shared = stanza("b", "1", "Conflicts: c") + stanza("c", "1")
    testing, unstable = tmp_path / "testing", tmp_path / "unstable"
    testing.write_text(shared + stanza("x", "1"))
    unstable.write_text(shared + stanza("x", "2", "Depends: b, c"))
    code = cli.main(["migrate", "--testing", str(testing), "--unstable",
                     str(unstable), "--timeout", "0.2"])
    assert code == cli.EXIT_TIMEOUT
    assert capsys.readouterr().err == \
        "timeout: solver ran past the deadline\n"
    assert len(rounds) == 2 and rounds[0] == rounds[1]


def _full_optimum(req, u, idx):
    """The optimum of the full encoding's instance, or None when its hard
    clauses have no model."""
    full = build_encoding(u, idx, req.encoding, req.policy)
    engine.attach_objective(req, u, full)
    result = satcore_mod.solve_pmaxsat(full.hard, full.soft,
                                       num_vars=full.num_vars,
                                       deadline=time.monotonic() + 60.0)
    if result.status is satcore_mod.SolveStatus.UNSAT:
        return None
    assert result.status is satcore_mod.SolveStatus.OPTIMAL
    return satcore_mod.count_satisfied(full.soft, result.true_atoms)


def test_rounds_reach_the_full_instance_optimum(monkeypatch, built):
    # dense clusters, where the first round's answer often fails the check;
    # a failed check names its members as ids, and a policy is resolved
    # before the first round, so the rounds look up no Package as an id
    # through any module's binding of package_id (a target-mode request
    # looks up its target before them)
    rng = random.Random(109)
    refined = {}
    lookups, solving = [], [False]
    original_rounds = engine._solve_verified

    def counting(original):
        def package_id(packages, p):
            if solving[0]:
                lookups.append(p)
            return original(packages, p)
        return package_id

    def rounds(*args, **kwargs):
        solving[0] = True
        try:
            return original_rounds(*args, **kwargs)
        finally:
            solving[0] = False

    for owner in (repo, encoder_mod, closure_mod):
        monkeypatch.setattr(owner, "package_id", counting(owner.package_id))
    monkeypatch.setattr(engine, "_solve_verified", rounds)
    for _ in range(6):
        size = rng.randint(50, 90)
        u = clustered_universe(rng, size,
                               conflicts=rng.randint(size // 6, size // 3),
                               empty_dep_prob=0.05)
        idx = ClosureIndex(u)
        incoming = sorted(u.unstable - u.testing)
        policy = PolicyRules(groups=[[(1, p) for p in incoming[:2]]])
        for encoding in ("p3", "p4", "p5-strict", "p5-pruned"):
            requests = [("max", MigrationRequest(encoding=encoding)),
                        ("min", MigrationRequest(mode="min-nontrivial",
                                                 encoding=encoding)),
                        ("policy", MigrationRequest(encoding=encoding,
                                                    policy=policy))]
            requests += [("target", MigrationRequest(
                mode="target", target=p, encoding=encoding))
                for p in incoming[-2:]]
            for case, req in requests:
                expected = _full_optimum(req, u, idx)
                try:
                    result = solve_migration(req, u)
                except Unsolvable:
                    assert expected is None, (case, encoding)
                    continue
                problem = built[-1]
                assert result.optimum == expected, (case, encoding)
                assert _admissible(result.t_prime, u, req.policy)
                key = case, encoding
                refined[key] = max(refined.get(key, 0),
                                   problem.atoms.num_inst_atoms)
    # each case took a second round somewhere: it tracked a context
    assert len(refined) == 16 and min(refined.values()) > 0, refined
    assert lookups == []


def test_a_first_round_that_passes_tracks_no_context(built):
    # a/2's closure holds the conflict of b/1 and c/1, so p5-pruned tracks
    # its context; but a/2 installs with b/1 alone, and the first round's
    # answer passes the check
    u = tiny_universe(["a/1", "a/2", "b/1", "c/1"],
                      dep={"a/2": [["b/1", "c/1"]]},
                      conflicts=[("b/1", "c/1")],
                      testing=["a/1", "b/1", "c/1"],
                      unstable=["a/2", "b/1", "c/1"])
    idx = ClosureIndex(u)
    result = solve_migration(MigrationRequest(), u)
    problem, = built
    assert result.migrated_in == (P("a/2"),)
    assert problem.atoms.num_inst_atoms == 0
    assert problem.encoding_id == "p5-pruned"
    assert build_encoding(u, idx, "p5-pruned").atoms.num_inst_atoms > 0


def test_alternative_optima_in_max_mode_match_the_oracle(built):
    # the alternatives are the optima's distinct projections onto the
    # candidates, found by enumerating every admissible set, up to limit + 1
    rng = random.Random(37)
    stopped = {"limit": 0, "optima": 0}
    refined = 0
    for _ in range(150):
        u = random_universe(rng, max_size=8, conflict_density=0.8)
        candidates = (u.unstable - u.testing) | (u.testing - u.unstable)
        changed = {}  # an admissible set's candidates -> how many change
        for t in admissible_sets(u):
            changed[t & candidates] = len((t ^ u.testing) & candidates)
        most = max(changed.values())
        optimal = {t for t, count in changed.items() if count == most}
        limit = rng.randint(0, 2)
        req = MigrationRequest()
        results = alternative_optima(req, u, limit)
        assert len(results) == min(limit + 1, len(optimal)), u
        projections = {r.t_prime & candidates for r in results}
        assert len(projections) == len(results)
        assert projections <= optimal
        for r in results:
            assert _admissible(r.t_prime, u)
            assert r.optimum == most
        stopped["limit" if len(optimal) > limit + 1 else "optima"] += 1
        solve_migration(req, u)
        refined += built[-1].atoms.num_inst_atoms > 0
    assert min(stopped.values()) > 0, stopped
    assert refined > 0


# -- decode -----------------------------------------------------------------------

def test_decode_all_false():
    u = _upgrade_universe()
    problem = build_encoding(u, None, "p1")
    assert decode_solution(frozenset(), problem.atoms) == frozenset()


def test_decode_ignores_inst_atoms():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p2")
    a = pkg_atom(problem.atoms, P("a/1"))
    aa = problem.atoms.contexts[0][0]
    assert decode_solution(frozenset({a, aa}), problem.atoms) == \
        {package_id(u.order, P("a/1"))}
    assert decode_solution(frozenset({aa}), problem.atoms) == frozenset()


# -- explanations ------------------------------------------------------------------

DEADLINE = math.inf


def _blocked(u, p):
    """The encoding whose target-mode solve for p raised Unsolvable."""
    with pytest.raises(Unsolvable) as raised:
        solve_migration(MigrationRequest(mode="target", target=p), u)
    return raised.value.problem


def test_explanation_cites_empty_disjunction():
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    explanation = explain_non_migration(P("a/2"), _blocked(u, P("a/2")),
                                        DEADLINE)
    assert any("a/2 requires one of [nothing]" in fact
               for fact in explanation.facts)
    assert any("migration of a/2 was requested" in fact
               for fact in explanation.facts)


def test_explanation_names_conflict_pair_and_context():
    # the incoming package needs two packages that conflict with each other,
    # so no installation for it exists; the deletion core was worked out by
    # hand: target unit, seed clause, both dependency clauses, the conflict
    u = tiny_universe(
        ["p/1", "p/2", "n/1", "k/1"],
        dep={"p/2": [["n/1"], ["k/1"]]},
        conflicts=[("n/1", "k/1")],
        testing=["p/1"], unstable=["p/2", "n/1", "k/1"])
    explanation = explain_non_migration(P("p/2"), _blocked(u, P("p/2")),
                                        DEADLINE)
    assert any("k/1 conflicts with n/1 (installation for p/2)" in fact
               for fact in explanation.facts)
    assert any("migration of p/2 was requested" in fact
               for fact in explanation.facts)


def test_explanation_core_equals_one_by_one_deletion():
    u = tiny_universe(
        ["p/1", "p/2", "n/1", "k/1"],
        dep={"p/2": [["n/1"], ["k/1"]]},
        conflicts=[("n/1", "k/1")],
        testing=["p/1"], unstable=["p/2", "n/1", "k/1"])
    problem = _blocked(u, P("p/2"))
    explanation = explain_non_migration(P("p/2"), problem, DEADLINE)
    assert explanation.core == deletion_mus(problem.hard,
                                            num_vars=problem.num_vars)
    assert explanation.facts == (
        "p/2 needs an installation containing itself",
        "p/2 requires one of [k/1] in the installation for p/2",
        "p/2 requires one of [n/1] in the installation for p/2",
        "k/1 conflicts with n/1 (installation for p/2)",
        "the migration of p/2 was requested")


def test_explanation_core_equals_one_by_one_deletion_mid_scale():
    # the installation sub-problems of these encodings, with their
    # dependency cycles, hold autarkies beyond pure literals, which the
    # random instances of test_satcore rarely do; the first blocked target
    # of each universe gives cores of 2 to 9 among 287 to 1246 clauses
    rng = random.Random(97)
    checked = 0
    for _ in range(6):
        size = rng.randint(50, 90)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 8))
        idx = ClosureIndex(u)
        for p in sorted(u.unstable - u.testing):
            for encoding in ("p5-strict", "p5-pruned"):
                req = MigrationRequest(mode="target", target=p,
                                       encoding=encoding)
                problem = build_encoding(u, idx, encoding)
                problem.hard.append(target_clause(check_target(p, u))[0])
                if satcore_mod.solve_sat(
                        problem.hard, num_vars=problem.num_vars).status \
                        is not satcore_mod.SolveStatus.UNSAT:
                    break
                assert satcore_mod.extract_mus(
                    problem.hard, num_vars=problem.num_vars).core == \
                    deletion_mus(problem.hard, num_vars=problem.num_vars), \
                    (size, p, encoding)
                checked += 1
            else:
                break
    assert checked >= 8


def test_explanation_core_timeout_is_a_solve_timeout(monkeypatch):
    def fake_mus(hard, num_vars=None, deadline=None):
        raise satcore_mod.SolveTimedOut("timeout during core minimization")

    monkeypatch.setattr(satcore_mod, "extract_mus", fake_mus)
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    problem = _blocked(u, P("a/2"))
    with pytest.raises(SolveTimedOut, match="core minimization"):
        explain_non_migration(P("a/2"), problem, DEADLINE)


def test_provenance_golden_text():
    # a/1 has id 0 and is the one tracked context of p5-pruned; y/1 stays
    # untracked, so its disjunction (written e/1 | d/1) is a
    # repository-level d clause whose options come in package order
    u = tiny_universe(
        ["a/1", "a/2", "b/1", "c/1", "d/1", "e/1", "y/1"],
        dep={"a/1": [["b/1"], ["c/1"]], "y/1": [["e/1", "d/1"]]},
        conflicts=[("b/1", "c/1")],
        testing=["a/1", "b/1", "c/1", "d/1", "e/1", "y/1"],
        unstable=["a/2", "b/1", "c/1", "d/1", "e/1", "y/1"])
    req = MigrationRequest(mode="min-nontrivial", policy=PolicyRules(
        groups=[[(1, P("e/1")), (-1, P("d/1"))]]))
    problem = build_encoding(u, None, req.encoding, req.policy)
    engine.attach_objective(req, u, problem)
    assert [engine.describe_clause(info, problem.atoms.packages)
            for info in problem.info] == [
        "only one version of 'a' may be present: a/1 vs a/2",
        "a/1 can only join the installation for a/1 if it is in the repository",
        "b/1 can only join the installation for a/1 if it is in the repository",
        "c/1 can only join the installation for a/1 if it is in the repository",
        "a/1 needs an installation containing itself",
        "a/1 requires one of [b/1] in the installation for a/1",
        "a/1 requires one of [c/1] in the installation for a/1",
        "y/1 requires one of [d/1, e/1] in the repository",
        "b/1 conflicts with c/1 (installation for a/1)",
        "policy group: +e/1 -d/1",
        "policy group: +e/1 -d/1",
        "at least one candidate package must change",
    ]


def _fields(info):
    # a Package is a tuple too: it is a field, not a group of fields
    for field in info:
        yield from (field if isinstance(field, tuple)
                    and not isinstance(field, Package) else (field,))


def test_no_provenance_field_is_a_package():
    rng = random.Random(61)
    checked = 0
    for _ in range(4):
        u = clustered_universe(rng, rng.randint(60, 120), conflicts=10)
        idx = ClosureIndex(u)
        pkgs = idx.packages
        policy = PolicyRules(groups=[[(1, pkgs[0]), (-1, pkgs[1])]],
                             extra_clauses=[[(1, pkgs[2])]])
        target = min(u.unstable - u.testing)
        infos = []
        for name in ("p3", "p4", "p5-strict", "p5-pruned"):
            problem = build_encoding(u, idx, name, policy)
            infos += problem.info
            infos.append(target_clause(check_target(target, u))[1])
        testing = id_set(u, u.testing)
        for i in range(len(pkgs)):
            if i in testing:
                infos += repo.installation_query(i, testing, u)[1]
        for info in infos:
            assert not any(isinstance(f, Package) for f in _fields(info)), info
            checked += 1
    assert checked > 1000


def _closure_slice_query(p, r, idx):
    """The installation query of p over closure(p) ∩ r, read from
    ``idx.closure``: the target, each member's disjunctions cut down to the
    slice, then the conflicts, with their provenance."""
    ids = sorted(r.intersection(idx.closure(p)))
    atom = {q: k for k, q in enumerate(ids, start=1)}
    clauses, info = [(atom[p],)], [("inst-target", p)]
    for q in ids:
        for targets in idx.deps[q]:
            inside = tuple(x for x in targets if x in atom)
            clauses.append((-atom[q], *map(atom.get, inside)))
            info.append(("inst-dep", q, inside if len(inside) < len(targets)
                         else targets))
    for a in ids:
        for b in idx.partners[a]:
            if b > a and b in atom:
                clauses.append((-atom[a], -atom[b]))
                info.append(("inst-conflict", a, b))
    return clauses, info, len(ids)


def test_queries_over_what_p_reaches_answer_as_over_its_closure(
        monkeypatch, capsys):
    # check's explanations and installable_in, which read what a package
    # reaches, against the same questions asked over its closure slice
    explained = 0
    for seed in (71, 73, 79):
        rng = random.Random(seed)
        size = rng.randint(120, 200)
        u = with_dead_ends(clustered_universe(rng, size, conflicts=size // 4),
                           tops=2, blocked=2)
        idx = ClosureIndex(u)
        testing = set(u.testing_ids)
        expected = {}
        for i in sorted(testing - repo.installable_ids(testing, u, math.inf)):
            clauses, info, num_vars = _closure_slice_query(i, testing, idx)
            core = satcore_mod.extract_mus(clauses, num_vars=num_vars).core
            expected[str(idx.packages[i])] = [
                engine.describe_clause(info[k], idx.packages) for k in core]
        monkeypatch.setattr(cli, "_load_universe", lambda args: u)
        common = ["check", "--testing", "-", "--unstable", "-"]
        assert cli.main([*common, "--format", "structured"]) == \
            cli.EXIT_VIOLATIONS
        entries = json.loads(capsys.readouterr().out)["violations"]
        assert {entry["packages"][0]: entry["explanation"]
                for entry in entries if entry["kind"] == "trimmedness"} == \
            expected
        assert cli.main(common) == cli.EXIT_VIOLATIONS
        assert capsys.readouterr().out == "".join(
            f"{entry['kind']}: {entry['detail']}\n"
            + "".join(f"  - {fact}\n" for fact in entry["explanation"] or ())
            for entry in entries)
        assert {"blocked0/1", "blocked1/1"} <= expected.keys()
        explained += len(expected)
        r = {i for i in range(len(idx.packages)) if rng.random() < 0.7}
        for i in sorted(r):
            clauses, _, num_vars = _closure_slice_query(i, r, idx)
            status = satcore_mod.solve_sat(clauses, num_vars=num_vars).status
            assert repo.installable_in(i, r, u, math.inf) == \
                (status is satcore_mod.SolveStatus.SAT), idx.packages[i]
    assert explained > 6


def _forge_verdict(monkeypatch, verdict):
    """Make every admissibility check that the engine runs return verdict."""
    monkeypatch.setattr(repo, "is_admissible", lambda *args: verdict)


@pytest.mark.parametrize("verdict", [
    repo.AdmissibilityVerdict(False, "uniqueness",
                              "name a occurs twice: a/1 and a/2", (0, 1)),
    repo.AdmissibilityVerdict(False, "policy", "clause unsatisfied: +a/1",
                              (0,)),
], ids=["uniqueness", "policy"])
def test_a_failed_verdict_that_rounds_cannot_mend_raises(
        monkeypatch, tmp_path, capsys, verdict):
    u = _upgrade_universe()
    _forge_verdict(monkeypatch, verdict)
    message = f"decoded repository failed verification: {verdict.detail}"
    with pytest.raises(engine.VerificationFailed,
                       match=f"^{re.escape(message)}$"):
        solve_migration(MigrationRequest(mode="max"), u)
    testing, unstable = tmp_path / "testing", tmp_path / "unstable"
    testing.write_text("Package: a\nVersion: 1\n\n")
    unstable.write_text("Package: a\nVersion: 2\n\n")
    assert cli.main(["migrate", "--testing", str(testing),
                     "--unstable", str(unstable)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


# p needs q or r, which conflict: p's context is the one that p5 tracks
TRACKED_CHOICE = dict(pkgs=["p/1", "q/1", "r/1", "z/1"],
                      dep={"p/1": [["q/1", "r/1"]]},
                      conflicts=[("q/1", "r/1")])


@pytest.mark.parametrize("subject,why", [
    ("p/1", "already tracked by the first round"),
    ("z/1", "not tracked by p5-pruned: its closure holds no conflict"),
])
def test_a_trimmedness_verdict_on_an_untrackable_context_raises(
        monkeypatch, subject, why):
    u = tiny_universe(**TRACKED_CHOICE)
    i = package_id(u.order, P(subject))
    detail = f"{subject} is not installable"
    _forge_verdict(monkeypatch, repo.AdmissibilityVerdict(
        False, "trimmedness", detail, (i,)))
    tracked = []
    original = encoder_mod.track_contexts

    def recording(*args):
        tracked.append(original(*args))
        return tracked[-1]

    monkeypatch.setattr(encoder_mod, "track_contexts", recording)
    with pytest.raises(engine.VerificationFailed,
                       match=f"^decoded repository failed verification: "
                             f"{detail}$"):
        solve_migration(MigrationRequest(mode="max"), u)
    assert tracked == ([True, False] if subject == "p/1" else [False]), why


def test_explaining_migratable_package_raises():
    u = _upgrade_universe()
    req = MigrationRequest(mode="target", target=P("a/2"))
    problem = build_encoding(u, None, req.encoding)
    engine.attach_objective(req, u, problem)
    with pytest.raises(ActuallySolvable):
        explain_non_migration(P("a/2"), problem, DEADLINE)


# -- explanations from the target's closure -------------------------------------

def _target_instance(u, p, encoding):
    """p's target-mode hard clauses under the encoding, and whether they
    are unsatisfiable."""
    problem = build_encoding(u, None, encoding)
    problem.add(*target_clause(check_target(p, u)))
    status = satcore_mod.solve_sat(problem.hard,
                                   num_vars=problem.num_vars).status
    return problem, status is satcore_mod.SolveStatus.UNSAT


def _named_clauses(problem):
    """Each hard clause with its literals named by packages, as (sign,
    package) or (sign, context, member), and its provenance's text."""
    atoms = problem.atoms
    pkgs, n = atoms.packages, atoms.num_package_atoms

    def name(lit):
        var = abs(lit)
        named = (pkgs[var - 1],) if var <= n else tuple(
            pkgs[i] for i in atoms.inst_pairs[var - n - 1])
        return (lit > 0, *named)

    return [(tuple(map(name, clause)), engine.describe_clause(info, pkgs))
            for clause, info in zip(problem.hard, problem.info)]


def _check_closure_slice(u, p, encoding):
    """Check the decision on p's closure (``_decide_in_closure``) against
    the full target-mode instance: the slice is UNSAT exactly when the
    full one is and, except under p4, whose easy packages read conflicts
    that leave the closure, it is the full instance's clauses over
    closure(p), in order, and its core's facts are the full instance's.
    True when p is blocked."""
    full, blocked = _target_instance(u, p, encoding)
    req = MigrationRequest(mode="target", target=p, encoding=encoding)
    try:
        engine._decide_in_closure(req, u)
        decided = None
    except Unsolvable as exc:
        decided = exc.problem
    assert (decided is not None) == blocked, (p, encoding)
    if encoding != "p4":
        inside = oracle.reachable(p, u)
        sliced, _ = _target_instance(repo.closure_universe(u, p), p, encoding)
        assert _named_clauses(sliced) == [
            (clause, fact) for clause, fact in _named_clauses(full)
            if all(set(literal[1:]) <= inside for literal in clause)]
        if blocked:
            assert _named_clauses(decided) == _named_clauses(sliced)
            assert explain_non_migration(p, decided, DEADLINE).facts == \
                explain_non_migration(p, full, DEADLINE).facts, (p, encoding)
    return blocked


def test_closure_slice_decides_like_the_full_instance_mid_scale():
    rng = random.Random(101)
    outcomes = {True: 0, False: 0}
    for _ in range(5):
        size = rng.randint(50, 100)
        u = clustered_universe(rng, size,
                               conflicts=rng.randint(size // 8, size // 3),
                               empty_dep_prob=0.05)
        for p in sorted(u.unstable - u.testing):
            for encoding in ("p3", "p4", "p5-strict", "p5-pruned"):
                outcomes[_check_closure_slice(u, p, encoding)] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_explain_target_gives_the_full_instance_core_mid_scale():
    # under p4 the closure's slice can name other facts (1 of 43 blocked
    # cases here), so explain_target takes p4's core from the full instance
    rng = random.Random(7)
    blocked = dict.fromkeys(("p3", "p4", "p5-strict", "p5-pruned"), 0)
    for _ in range(20):
        size = rng.randint(50, 100)
        u = clustered_universe(rng, size,
                               conflicts=rng.randint(size // 8, size // 3),
                               empty_dep_prob=0.05)
        for p in sorted(u.unstable - u.testing):
            for encoding in blocked:
                full, is_blocked = _target_instance(u, p, encoding)
                if not is_blocked:
                    continue
                req = MigrationRequest(mode="target", target=p,
                                       encoding=encoding)
                assert engine.explain_target(req, u).facts == \
                    explain_non_migration(p, full, DEADLINE).facts, (p, encoding)
                blocked[encoding] += 1
    assert min(blocked.values()) >= 40, blocked


def test_closure_slice_decides_like_the_exhaustive_oracle():
    rng = random.Random(103)
    outcomes = {True: 0, False: 0}
    for _ in range(30):
        u = random_universe(rng, size=rng.randint(2, 9), dep_density=0.6,
                            conflict_density=0.6)
        admissible = admissible_sets(u)
        encodings = ["p2-oracle", "p3", "p4", "p5-strict", "p5-pruned"]
        if not u.conflict_pairs:
            encodings.append("p1")
        for p in sorted(u.unstable - u.testing):
            migrates = any(p in t_prime for t_prime in admissible)
            for encoding in encodings:
                assert _check_closure_slice(u, p, encoding) != migrates
                req = MigrationRequest(mode="target", target=p,
                                       encoding=encoding)
                answer = engine.explain_target(req, u)
                assert isinstance(answer, engine.MigrationResult) == migrates
                outcomes[migrates] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_explain_target_under_a_policy_explains_the_full_instance():
    # a/2 alone migrates, but the policy ties it to b/2, which cannot
    # migrate and lies outside a/2's closure
    u = tiny_universe(["a/1", "a/2", "b/1", "b/2"], dep={"b/2": [[]]},
                      testing=["a/1", "b/1"], unstable=["a/2", "b/2"])
    policy = PolicyRules(groups=[[(1, P("a/2")), (1, P("b/2"))]])
    free = MigrationRequest(mode="target", target=P("a/2"))
    assert engine.explain_target(free, u).migrated_in == (P("a/2"),)
    tied = MigrationRequest(mode="target", target=P("a/2"), policy=policy)
    assert engine.explain_target(tied, u).facts == (
        "b/2 requires one of [nothing] in the repository",
        "policy group: +a/2 +b/2",
        "the migration of a/2 was requested")
    # the failed solve's rounds track no context; the problem it raises
    # with is the full instance, with the target clause
    for target, encoding, rules in (("a/2", "p5", policy),
                                    ("a/2", "p4", policy),
                                    ("b/2", "p4", None)):
        req = MigrationRequest(mode="target", target=P(target),
                               encoding=encoding, policy=rules)
        full = build_encoding(u, None, encoding, rules)
        engine.attach_objective(req, u, full)
        with pytest.raises(Unsolvable) as exc:
            solve_migration(req, u)
        assert exc.value.problem.hard == full.hard, (target, encoding)
        assert list(exc.value.problem.info) == list(full.info)
        assert engine.explain_target(req, u).facts == explain_non_migration(
            P(target), full, DEADLINE).facts, (target, encoding)


@pytest.mark.parametrize("encoding,policy", [
    ("p5", None), ("p3", None), ("p4", None),
    ("p5", PolicyRules(extra_clauses=[[(1, P("a/1"))]]))],
    ids=["p5", "p3", "p4", "p5-policy"])
def test_both_entry_points_refuse_a_target_that_is_no_candidate(encoding,
                                                                policy):
    # the closure decision and the full solve give the same refusals
    u = _upgrade_universe()
    for target, message in (("b/1", "b/1 is not in the universe"),
                            ("a/1", "a/1 is not a migration candidate")):
        req = MigrationRequest(mode="target", target=P(target),
                               encoding=encoding, policy=policy)
        for entry_point in (solve_migration, engine.explain_target):
            with pytest.raises(NotAMigrationCandidate) as exc:
                entry_point(req, u)
            assert str(exc.value) == message, (entry_point, target)


def test_decisions_and_cores_take_the_requests_deadline(monkeypatch):
    # a/2 needs b/2, which cannot migrate; c/2 migrates
    u = tiny_universe(["a/1", "a/2", "b/2", "c/1", "c/2"],
                      dep={"a/2": [["b/2"]], "b/2": [[]]},
                      testing=["a/1", "c/1"], unstable=["a/2", "b/2", "c/2"])
    decided = []
    cored = []
    solve, extract = satcore_mod.solve_pmaxsat, satcore_mod.extract_mus

    def solving(hard, soft, num_vars, deadline):
        decided.append(deadline)
        return solve(hard, soft, num_vars=num_vars, deadline=deadline)

    def extracting(hard, num_vars, deadline):
        cored.append(deadline)
        return extract(hard, num_vars=num_vars, deadline=deadline)

    monkeypatch.setattr(satcore_mod, "solve_pmaxsat", solving)
    monkeypatch.setattr(satcore_mod, "extract_mus", extracting)
    deadline = time.monotonic() + 600.0
    for target, encoding, decisions in (("a/2", "p5", 1), ("a/2", "p4", 1),
                                        ("c/2", "p5", 2)):
        decided.clear()
        cored.clear()
        req = MigrationRequest(mode="target", target=P(target),
                               encoding=encoding, deadline=deadline)
        answer = engine.explain_target(req, u)
        blocked = isinstance(answer, engine.Explanation)
        assert blocked == (target == "a/2")
        assert decided == [deadline] * decisions, (target, encoding)
        assert cored == ([deadline] if blocked else []), (target, encoding)


# -- hints / reports ----------------------------------------------------------------

def test_hints_version_replacement_single_easy_line():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == "easy a/2\n"


def test_hints_bare_removal():
    u = tiny_universe(["b/1"], dep={"b/1": [[]]},
                      testing=["b/1"], unstable=[])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == "remove b/1\n"


def test_hints_empty_delta():
    u = tiny_universe(["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == ""


def test_structured_report_round_trip():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    document = structured_report(result)
    parsed = json.loads(dump_structured(document))
    assert isinstance(parsed, dict)
    assert parsed == document
    assert parsed["delta"] == 2
    assert parsed["t_prime"] == ["a/2"]
    assert parsed["optimum"] == {"count": 2, "externally_claimed": False}


def test_render_report_mentions_core_fields():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    text = render_report(result)
    assert "delta: 2" in text
    assert "migrated-in: a/2" in text
    assert "verified: yes" in text


# -- external solver paths -------------------------------------------------------------


def _fake_solver(tmp_path, body):
    script = tmp_path / "solver.py"
    script.write_text(f"#!{sys.executable}\n{body}")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return [str(script)]


def test_external_optimum_accepted_and_flagged(tmp_path):
    u = _upgrade_universe()
    # atoms: a/1 -> 1, a/2 -> 2; optimum keeps a/2 only
    cmd = _fake_solver(tmp_path,
                       "print('o 0')\nprint('s OPTIMUM FOUND')\n"
                       "print('v -1 2 0')\n")
    result = solve_migration(
        MigrationRequest(mode="max", solver_command=cmd), u)
    assert result.t_prime == {P("a/2")}
    assert result.optimum == 2
    assert result.externally_claimed


def test_external_cost_mismatch_is_an_error(tmp_path):
    u = _upgrade_universe()
    cmd = _fake_solver(tmp_path,
                       "print('o 1')\nprint('s OPTIMUM FOUND')\n"
                       "print('v -1 2 0')\n")
    with pytest.raises(OptimumMismatch):
        solve_migration(MigrationRequest(mode="max", solver_command=cmd), u)


def test_external_plain_sat_is_accepted_with_warning(tmp_path):
    u = _upgrade_universe()
    cmd = _fake_solver(tmp_path,
                       "print('s SATISFIABLE')\nprint('v -1 -2 0')\n")
    result = solve_migration(
        MigrationRequest(mode="max", solver_command=cmd), u)
    assert result.t_prime == frozenset()
    assert any("optimality" in w for w in result.warnings)
    assert not result.externally_claimed


# An external MaxSAT solver for tiny WCNF instances: it enumerates every
# assignment, keeps the first of most soft weight that meets every hard
# clause, and prints it with its cost and an optimality claim.
_ENUMERATING_SOLVER = """\
import itertools, sys
hard, soft = [], []
for line in open(sys.argv[1]):
    tokens = line.split()
    if not tokens or tokens[0] == "c":
        continue
    if tokens[0] == "p":
        num_vars, top = int(tokens[2]), int(tokens[4])
        continue
    weight, clause = int(tokens[0]), [int(t) for t in tokens[1:-1]]
    (hard if weight == top else soft).append(clause)
best = None
for values in itertools.product((False, True), repeat=num_vars):
    def true(lit):
        return values[abs(lit) - 1] == (lit > 0)
    if all(any(true(l) for l in c) for c in hard):
        cost = sum(1 for c in soft if not any(true(l) for l in c))
        if best is None or cost < best[0]:
            best = (cost, values)
if best is None:
    print("s UNSATISFIABLE")
else:
    print(f"o {best[0]}")
    print("s OPTIMUM FOUND")
    print("v " + " ".join(str(v if x else -v)
                          for v, x in enumerate(best[1], start=1)) + " 0")
"""


def test_alternative_optima_with_an_external_solver(tmp_path):
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    cmd = _fake_solver(tmp_path, _ENUMERATING_SOLVER)
    results = alternative_optima(
        MigrationRequest(mode="max", solver_command=cmd), u, 5)
    # a/3 or a/2 replaces a/1 (the enumeration meets a/3 first); blocking
    # both leaves optimum 1
    assert [r.t_prime for r in results] == [{P("a/3")}, {P("a/2")}]
    for result in results:
        assert result.optimum == 2
        assert result.externally_claimed
        assert _admissible(result.t_prime, u)
    embedded = alternative_optima(MigrationRequest(mode="max"), u, 5)
    assert {r.t_prime for r in results} == {r.t_prime for r in embedded}
