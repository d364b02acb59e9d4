"""Reference oracles for the test suite.

The exhaustive ones enumerate subsets or assignments, so they are
exponential by design and bounded to small inputs. `unique_pairs` and
`is_healthy` are the definitions of uniqueness and healthiness on
Packages that they test against, and `broken_rules` the definition of a
policy's groups and clauses. `deletion_mus` is the plain
one-clause-at-a-time core loop, `sat_installable` one SAT query over a
package's whole closure on Packages, and `normalized_encoding` the e, i,
d and c generator that passes every clause through `normalize_clause`.
`parse_dimacs` reads back what `satcore.emit_dimacs` writes,
`clause_satisfied` is the per-literal definition `verify_model` and
`count_satisfied` are tested against, `canonical_version` is the
normal form `compare_versions` is tested against, `stanza_blocks`
the line-by-line block split the one-pass `_split_stanza_blocks` is
tested against, `block_fields` the rule-by-rule reading of a block's
lines `_fields_of_block` is tested against, `two_walk_groups` the
two-walk field parse the one-walk `_parse_groups` is tested against, and
`infer_num_vars` the largest variable of hand-written clauses, for the
oracles called without a count.
Only the tests import this module; numpy is needed only here.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Iterable

import numpy as np

from satmigrate import encoder, satcore
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import (MalformedDependency, _char_order,
                                    _parse_alternative, _split_version)
from satmigrate.encoder import EncodedProblem
from satmigrate.repo import Package, PolicyRules, RepoError, Universe
from satmigrate.satcore import (NotUnsat, SatCoreError, SolveResult,
                                SolveStatus, literal_true, solve_sat)

DEFAULT_INSTALLABILITY_BOUND = 20
ENUMERATION_BOUND = 16
BRUTE_FORCE_MAX_VARS = 24


class ContextTooLarge(RepoError):
    """An exhaustive model oracle was asked beyond its bound."""


class TooLarge(SatCoreError):
    """Exhaustive enumeration was requested beyond its variable bound."""


def infer_num_vars(*clause_sets) -> int:
    return max(map(abs, chain.from_iterable(chain.from_iterable(clause_sets))),
               default=0)


def brute_force_solve(hard, soft=None, num_vars: int | None = None) -> SolveResult:
    """Exhaustive oracle: enumerate all assignments, exact optimum.

    Assignments are encoded as integers; bit v-1 is the value of atom v.
    """
    hard = [tuple(c) for c in hard]
    soft = [tuple(c) for c in soft] if soft is not None else None
    if num_vars is None:
        num_vars = infer_num_vars(hard, soft or [])
    if num_vars > BRUTE_FORCE_MAX_VARS:
        raise TooLarge(f"{num_vars} variables exceed the enumeration bound")
    masks = np.arange(1 << num_vars, dtype=np.uint32)

    def clause_ok(clause):
        ok = np.zeros(len(masks), dtype=bool)
        for lit in clause:
            bit = (masks >> (abs(lit) - 1)) & 1
            ok |= (bit == 1) if lit > 0 else (bit == 0)
        return ok

    hard_ok = np.ones(len(masks), dtype=bool)
    for clause in hard:
        hard_ok &= clause_ok(clause)
    if not hard_ok.any():
        return SolveResult(SolveStatus.UNSAT)

    def model_of(index):
        return frozenset(v for v in range(1, num_vars + 1)
                         if (index >> (v - 1)) & 1)

    if soft is None:
        index = int(np.argmax(hard_ok))
        return SolveResult(SolveStatus.SAT, true_atoms=model_of(index))
    counts = np.zeros(len(masks), dtype=np.int32)
    for clause in soft:
        counts += clause_ok(clause)
    counts[~hard_ok] = -1
    index = int(np.argmax(counts))
    return SolveResult(SolveStatus.OPTIMAL, true_atoms=model_of(index),
                       satisfied_soft=int(counts[index]))


def deletion_mus(hard, num_vars: int | None = None) -> tuple[int, ...]:
    """Reference for satcore.extract_mus: drop one clause at a time, in
    clause order, whenever the rest stays UNSAT; the indices left form the
    core."""
    hard = [tuple(c) for c in hard]
    if num_vars is None:
        num_vars = infer_num_vars(hard)

    def status_of(indices):
        status = solve_sat([hard[i] for i in indices], num_vars=num_vars).status
        if status is SolveStatus.TIMEOUT:
            raise SatCoreError("timeout in the reference core loop")
        return status

    if status_of(range(len(hard))) is not SolveStatus.UNSAT:
        raise NotUnsat("instance is satisfiable")
    core = list(range(len(hard)))
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if status_of(trial) is SolveStatus.UNSAT:
            core = trial
        else:
            i += 1
    return tuple(core)


def unique_pairs(u: Universe) -> frozenset[tuple[Package, Package]]:
    """All ordered pairs sharing a name with different versions."""
    by_name: dict[str, list[Package]] = {}
    for p in u.packages:
        by_name.setdefault(p.name, []).append(p)
    pairs = set()
    for group in by_name.values():
        for a in group:
            for b in group:
                if a != b:
                    pairs.add((a, b))
    return frozenset(pairs)


def is_healthy(members: Iterable[Package], u: Universe) -> bool:
    """True iff every dependency disjunction is met inside the set and no
    conflicting pair is present."""
    mset = frozenset(members)
    for p in mset:
        for disjunction in u.dep.get(p, ()):
            if not disjunction & mset:
                return False
    for a, b in u.conflicts:
        if a in mset and b in mset:
            return False
    return True


def reachable(p: Package, u: Universe) -> frozenset[Package]:
    """Reflexive-transitive closure of "may depend" from one package."""
    seen, frontier = {p}, [p]
    while frontier:
        new = frozenset().union(*u.dep.get(frontier.pop(), ())) - seen
        seen |= new
        frontier += new
    return frozenset(seen)


def sat_installable(p: Package, r: Iterable[Package], u: Universe) -> bool:
    """Reference for repo.is_installable: one SAT query over every member
    of p's closure inside r, on Packages, with no preprocessing."""
    ctx = sorted(reachable(p, u) & frozenset(r))
    atom = {q: k for k, q in enumerate(ctx, start=1)}
    clauses = [(atom[p],)] + [(-atom[q], *sorted(atom[x] for x in d if x in atom))
                              for q in ctx for d in u.dep.get(q, ())]
    clauses += [(-atom[a], -atom[b]) for a, b in sorted(u.conflicts)
                if a < b and a in atom and b in atom]
    status = satcore.solve_sat(clauses, num_vars=len(ctx)).status
    if status is SolveStatus.TIMEOUT:
        raise SatCoreError(f"timeout in the reference query for {p}")
    return status is SolveStatus.SAT


def is_installable(p: Package, r: Iterable[Package], u: Universe,
                   bound: int = DEFAULT_INSTALLABILITY_BOUND) -> bool:
    """Reference for repo.is_installable: enumerate every subset of p's
    closure restricted to r."""
    rset = frozenset(r)
    if p not in rset or not rset <= u.packages:
        raise ValueError("need p ∈ r ⊆ packages")
    ctx = reachable(p, u) & rset
    if len(ctx) > bound:
        raise ContextTooLarge(
            f"context of {p} has {len(ctx)} packages (> {bound})")
    others = sorted(ctx - {p})
    for mask in range(1 << len(others)):
        members = {p}
        for i in range(len(others)):
            if mask >> i & 1:
                members.add(others[i])
        if is_healthy(members, u):
            return True
    return False


def broken_rules(t_prime: frozenset[Package], policy: PolicyRules | None
                 ) -> list[tuple[str, list]]:
    """Reference for repo.policy_violation, on Packages, from the rules'
    definitions: a literal (+1, p) holds when p is in T′ and (-1, p) when
    p is not; a group holds when all its literals hold or none does, and a
    clause when at least one holds. Returns every rule that T′ breaks, as
    ("group", rule) or ("clause", rule), groups first, in policy order."""
    if policy is None:
        return []

    def held(rule) -> list[bool]:
        return [p in t_prime if sign > 0 else p not in t_prime
                for sign, p in rule]

    return ([("group", group) for group in policy.groups
             if any(held(group)) and not all(held(group))] +
            [("clause", clause) for clause in policy.extra_clauses
             if not any(held(clause))])


def restore_shared(t_prime: frozenset[Package], u: Universe,
                   policy: PolicyRules | None) -> frozenset[Package]:
    """Reference for engine._restore_shared: one sat_installable query per
    dropped shared package, in sorted order."""
    current = set(t_prime)
    names = {p.name for p in current}
    for p in sorted((u.testing & u.unstable) - t_prime):
        if p.name in names:
            continue
        candidate = frozenset(current | {p})
        if not sat_installable(p, candidate, u):
            continue
        if broken_rules(candidate, policy):
            continue
        current.add(p)
        names.add(p.name)
    return frozenset(current)


@functools.lru_cache(maxsize=None)
def _bit_clear_pattern(n: int, b: int) -> int:
    """2**n-bit integer with ones at mask-indices whose bit b is clear."""
    step = 1 << b
    period = step * 2
    reps = (1 << n) // period
    block = (1 << step) - 1
    return block * (((1 << (period * reps)) - 1) // ((1 << period) - 1))


def admissible_masks(u: Universe, policy: PolicyRules | None = None):
    """Enumerate every admissible T' as a bitmask over the sorted packages.

    Healthy subsets are found by direct enumeration; per-package
    installability over all candidate repositories follows by closing the
    healthy-set family upward in the subset lattice.
    """
    pkgs = list(u.order)
    n = len(pkgs)
    if n > ENUMERATION_BOUND:
        raise ContextTooLarge(f"{n} packages exceed the enumeration bound")
    index = {p: i for i, p in enumerate(pkgs)}
    dep_masks: list[list[int]] = []
    for p in pkgs:
        masks = []
        for disjunction in u.dep.get(p, ()):
            m = 0
            for q in disjunction:
                m |= 1 << index[q]
            masks.append(m)
        dep_masks.append(masks)
    pair_masks = sorted({(1 << index[a]) | (1 << index[b])
                         for a, b in u.conflicts})
    size = 1 << n
    full = (1 << size) - 1

    def healthy(mask: int) -> bool:
        for pm in pair_masks:
            if mask & pm == pm:
                return False
        mm = mask
        while mm:
            low = mm & -mm
            for dm in dep_masks[low.bit_length() - 1]:
                if not dm & mask:
                    return False
            mm ^= low
        return True

    healthy_masks = [m for m in range(size) if healthy(m)]
    trimmed_space = full
    for i in range(n):
        seed = 0
        bit = 1 << i
        for h in healthy_masks:
            if h & bit:
                seed |= 1 << h
        g = seed
        for b in range(n):
            g |= (g & _bit_clear_pattern(n, b)) << (1 << b)
        # packages absent from a repository do not constrain it
        trimmed_space &= g | _bit_clear_pattern(n, i)
    bad = 0
    for a, b in unique_pairs(u):
        if a < b:
            has_a = full ^ _bit_clear_pattern(n, index[a])
            has_b = full ^ _bit_clear_pattern(n, index[b])
            bad |= has_a & has_b
    space = trimmed_space & (full ^ bad)
    if policy is not None:
        def literal_space(sign: int, pkg: Package) -> int:
            clear = _bit_clear_pattern(n, index[pkg])
            return (full ^ clear) if sign > 0 else clear

        for group in policy.groups:
            all_true = full
            all_false = full
            for sign, pkg in group:
                all_true &= literal_space(sign, pkg)
                all_false &= full ^ literal_space(sign, pkg)
            space &= all_true | all_false
        for clause in policy.extra_clauses:
            acc = 0
            for sign, pkg in clause:
                acc |= literal_space(sign, pkg)
            space &= acc
    masks = [m for m in range(size) if space >> m & 1]
    return pkgs, masks


def admissible_sets(u: Universe,
                    policy: PolicyRules | None = None) -> list[frozenset[Package]]:
    pkgs, masks = admissible_masks(u, policy)
    return [frozenset(pkgs[i] for i in range(len(pkgs)) if mask >> i & 1)
            for mask in masks]


def normalized_encoding(u: Universe, idx: ClosureIndex,
                        name: str) -> EncodedProblem:
    """Reference for encoder.build_encoding without policy rules: each e,
    i, d and c clause is written down as it reads and handed to
    EncodedProblem.add, which sorts it by variable and drops it if it is a
    tautology; conflicts are found by testing every conflict pair against
    every context's member set."""
    encoding_id = encoder.ALIASES.get(name, name)
    scheme = encoder.SCHEMES[encoding_id]
    pkgs = idx.packages
    tracked: dict[int, list[int]] = {}  # context id -> member ids, in id order
    if scheme.members is not None:
        for c in range(len(pkgs)):
            if not scheme.conflicting_only or idx.relevant_ends(c):
                tracked[c] = scheme.members(idx, c)
    pairs = [(c, m) for c, members in tracked.items() for m in members]
    atoms = encoder.AtomTable(idx, pairs)
    inst = {pair: len(pkgs) + 1 + k for k, pair in enumerate(pairs)}
    problem = EncodedProblem(encoding_id, atoms)
    add = problem.add
    encoder.uniqueness_clauses(problem)
    for c, members in tracked.items():
        for m in members:
            add((-inst[c, m], m + 1), ("e", c, m))
    for c in tracked:
        add((-(c + 1), inst[c, c]), ("i", c))
    easy = idx.easy_ids if scheme.easy_direct else set()
    for c in range(len(pkgs)):
        members = tracked.get(c)
        if members is None:
            for targets in idx.deps[c]:
                add([-(c + 1)] + [q + 1 for q in targets],
                    ("d", None, c, targets))
            continue
        local = set(members) - easy
        for m in members:
            head = -inst[c, m]
            for targets in idx.deps[m]:
                add([head] + [inst[c, q] if q in local else q + 1
                              for q in targets],
                    ("d", c, m, targets))
    for c, members in tracked.items():
        inside = set(members)
        for a, b in u.conflict_pairs:
            if a in inside and b in inside:
                add((-inst[c, a], -inst[c, b]), ("c", c, a, b))
    return problem


def _canonical_part(s: str) -> tuple:
    """Normal form of one version part: alternating char-order/int entries.

    Two parts compare equal under _compare_part iff their normal forms are
    identical (trailing zero runs and leading zeros are stripped).
    """
    entries: list = []
    i, n = 0, len(s)
    while i < n:
        j = i
        while j < n and not s[j].isdigit():
            j += 1
        entries.append(tuple(_char_order(c) for c in s[i:j]) + (0,))
        i = j
        while j < n and s[j].isdigit():
            j += 1
        entries.append(int(s[i:j]) if j > i else 0)
        i = j
    if len(entries) % 2:
        entries.append(0)
    while entries and entries[-1] == 0 and entries[-2] == (0,):
        del entries[-2:]
    return tuple(entries)


def canonical_version(version: str) -> tuple:
    """Normal form; two versions are equal iff their normal forms are."""
    epoch, upstream, revision = _split_version(version)
    return epoch, _canonical_part(upstream), _canonical_part(revision)


def stanza_blocks(text: str) -> list[tuple[str, ...]]:
    """The blank-line separated blocks of text, as tuples of lines, found
    line by line: lines end at "\n" alone, less one trailing "\r", and a
    line is blank when str.strip() leaves nothing of it."""
    lines = [line[:-1] if line.endswith("\r") else line
             for line in text.split("\n")]
    blocks: list[tuple[str, ...]] = []
    current: list[str] = []
    for line in lines:
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(tuple(current))
            current = []
    if current:
        blocks.append(tuple(current))
    return blocks


def block_fields(lines: Iterable[str]) -> dict[str, str] | str:
    """The fields of a block's lines, keyed by lower-cased name, or the
    first bad line: one that continues no field, has no ":", has an empty
    name or a name with a space, or names a field already named in any
    case. A continuation line adds its stripped text after a space."""
    fields: dict[str, str] = {}
    last = None
    for line in lines:
        if line[0] in " \t":
            if last is None:
                return line
            fields[last] += " " + line.strip()
            continue
        name, sep, value = line.partition(":")
        name = name.strip()
        if not sep or not name or " " in name or name.lower() in fields:
            return line
        last = name.lower()
        fields[last] = value.strip()
    return fields


def _split_offsets(text: str, sep: str, start: int, end: int
                   ) -> list[tuple[int, int]]:
    spans = []
    while True:
        pos = text.find(sep, start, end)
        if pos < 0:
            spans.append((start, end))
            return spans
        spans.append((start, pos))
        start = pos + 1


def two_walk_groups(text: str, sep: str):
    """The groups of a field as `_parse_groups` parses them, in two walks:
    each str.split piece is parsed alone, and when one does not parse the
    text is walked again by offsets, so that the error carries its offset
    into text."""
    try:
        return tuple(tuple(_parse_alternative(chunk.strip(), 0,
                                              len(chunk.strip()))
                           for chunk in group.split(sep))
                     for group in text.split(","))
    except MalformedDependency:
        pass
    return tuple(tuple(_parse_alternative(text, astart, aend)
                       for astart, aend in _split_offsets(text, sep, gstart,
                                                          gend))
                 for gstart, gend in _split_offsets(text, ",", 0, len(text)))


def clause_satisfied(clause, true_atoms) -> bool:
    return any(literal_true(lit, true_atoms) for lit in clause)


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
