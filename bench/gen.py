"""Deterministic generator of Debian-shaped testing/unstable archive pairs.

No real Debian archive can be downloaded where this benchmark runs, so its
inputs are synthetic. The shape follows the main archive:

* names sit in layers (base libraries, libraries, applications) and depend
  only on lower layers, with preferential attachment, so a few libraries
  have many reverse dependencies;
* some dependencies are ``a | b`` alternatives and some carry a version
  constraint ``(>= v)``;
* virtual names have several providers that conflict with each other, in
  the style of mail-transport-agent (``Provides: V`` plus
  ``Conflicts: V``), and some packages depend on the virtual name;
* a few explicit conflicts between names of one layer;
* a share of names is updated in unstable; an update may tighten a
  dependency to the new version of an updated library, or ``Breaks`` old
  versions of a reverse dependency (a library transition);
* some names exist only in unstable (new) or only in testing (removed);
* planted broken updates depend on a name that exists nowhere, and planted
  blocked updates depend on the new version of a planted broken one.

The same (tag, seed, size) always gives the same archive, and with the
same order seed byte-identical Packages files: every random choice comes
from ``random.Random`` seeded with a string, and nothing iterates over a
set or a hash-ordered dict.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from model import Model, PkgId

SYLLABLES = ("al", "bo", "cu", "da", "el", "fi", "gu", "ho", "ix", "ja",
             "ke", "lo", "mu", "ny", "or", "pa", "qu", "ra", "si", "tu")
VIRTUALS = ("mail-transport-agent", "httpd", "x-window-manager", "java-runtime")
# Shares of names (or of dependencies, for the alternative and versioned
# shares) that get each feature.
UPDATE_SHARE = 0.3
NEW_SHARE = 0.05
REMOVED_SHARE = 0.03
ALTERNATIVE_SHARE = 0.2
VERSIONED_SHARE = 0.15
CONFLICT_SHARE = 0.03


@dataclass
class Stanza:
    """One package; relations are (name, op, rank) with op in "", ">=", "<<".

    Versions are ranks (1 = testing's version, 2 = the update) rendered as
    Debian version strings whose order follows the rank.
    """

    name: str
    rank: int
    version: str
    depends: list[list[tuple[str, str, int]]] = field(default_factory=list)
    conflicts: list[tuple[str, str, int]] = field(default_factory=list)
    breaks: list[tuple[str, str, int]] = field(default_factory=list)
    provides: list[str] = field(default_factory=list)
    section: str = "libs"


@dataclass
class Archive:
    label: str
    testing: list[Stanza]
    unstable: list[Stanza]
    broken: list[PkgId]
    # blocked update -> the planted broken update it depends on
    blocked: dict[PkgId, PkgId]
    num_names: int
    # per-name seed that fixes the rendered version string of each rank
    seeds: dict[str, int]

    def model(self) -> Model:
        return Model(self.testing, self.unstable)


def version_text(name_seed: int, rank: int) -> str:
    minor = name_seed % 7
    rev = 1 + name_seed % 3
    return f"{rank}.{minor}-{rev}" if name_seed % 5 else f"1:{rank}.{minor}+dfsg-{rev}"


def _relation_text(rel: tuple[str, str, int], seeds: dict[str, int]) -> str:
    name, op, rank = rel
    if not op:
        return name
    return f"{name} ({op} {version_text(seeds.get(name, 0), rank)})"


def render(stanzas: list[Stanza], seeds: dict[str, int]) -> bytes:
    """Packages file text, in the order given."""
    blocks = []
    for s in stanzas:
        lines = [f"Package: {s.name}", f"Version: {s.version}",
                 "Architecture: amd64", f"Section: {s.section}",
                 f"Installed-Size: {64 + seeds.get(s.name, 0) % 4096}",
                 "Maintainer: Debian Benchmark Team <bench@example.org>"]
        if s.depends:
            lines.append("Depends: " + ", ".join(
                " | ".join(_relation_text(a, seeds) for a in group)
                for group in s.depends))
        if s.conflicts:
            lines.append("Conflicts: " + ", ".join(
                _relation_text(c, seeds) for c in s.conflicts))
        if s.breaks:
            lines.append("Breaks: " + ", ".join(
                _relation_text(c, seeds) for c in s.breaks))
        if s.provides:
            lines.append("Provides: " + ", ".join(s.provides))
        lines.append(f"Description: synthetic package {s.name}")
        lines.append(f" Generated for the satmigrate benchmark, rank {s.rank}.")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks).encode("ascii")


def generate(tag: str, seed: int, num_names: int, *, broken=2,
             blocked=2) -> Archive:
    """Build one archive pair with about ``num_names`` names in testing ∪
    unstable, ``broken`` planted broken updates and up to ``blocked``
    planted blocked ones."""
    rng = random.Random(f"{tag}:{seed}:{num_names}")
    name_seeds: dict[str, int] = {}

    def new_name(prefix: str) -> str:
        while True:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
            name = f"{prefix}{word}{rng.randint(0, 99)}"
            if name not in name_seeds:
                name_seeds[name] = rng.randrange(1 << 20)
                return name

    # Layered names: few base libraries, more libraries, most applications.
    layer_count = 4 if num_names < 400 else 6
    weights = [1.0 + 1.5 * i for i in range(layer_count)]
    total_w = sum(weights)
    sizes = [max(2, round(num_names * w / total_w)) for w in weights]
    layers: list[list[str]] = []
    for li, size in enumerate(sizes):
        prefix = "lib" if li < layer_count - 1 else ""
        layers.append([new_name(prefix) for _ in range(size)])
    layer_of = {n: li for li, names in enumerate(layers) for n in names}
    popularity = {n: 1.0 for n in layer_of}

    def pick_lower(li: int) -> str:
        pool = [n for lj in range(max(0, li - 2), li) for n in layers[lj]]
        w = [popularity[n] for n in pool]
        choice = rng.choices(pool, weights=w)[0]
        popularity[choice] += 1.0
        return choice

    # Virtual names: providers in layer 1, conflicting with each other.
    providers: dict[str, list[str]] = {}
    virtual_count = 1 if num_names < 60 else min(len(VIRTUALS), 1 + num_names // 150)
    for v in VIRTUALS[:virtual_count]:
        providers[v] = rng.sample(layers[1], min(3, len(layers[1])))
    provided = {n: v for v, names in providers.items() for n in names}

    base: dict[str, Stanza] = {}
    for li, names in enumerate(layers):
        for n in names:
            s = Stanza(n, 1, version_text(name_seeds[n], 1),
                       section="libs" if li < layer_count - 1 else "utils")
            if li:
                deps: list[str] = []
                for _ in range(rng.choices((0, 1, 2, 3, 4), (1, 3, 3, 2, 1))[0]):
                    d = pick_lower(li)
                    if d not in deps and provided.get(d) is None:
                        deps.append(d)
                for d in deps:
                    if rng.random() < ALTERNATIVE_SHARE:
                        other = pick_lower(li)
                        if other != d and other not in deps and other not in provided:
                            s.depends.append([(d, "", 0), (other, "", 0)])
                            continue
                    op = ">=" if rng.random() < VERSIONED_SHARE else ""
                    s.depends.append([(d, op, 1 if op else 0)])
            if n in provided:
                s.provides.append(provided[n])
                s.conflicts.append((provided[n], "", 0))
            base[n] = s
    for v, names in providers.items():
        users = [n for li in range(2, layer_count) for n in layers[li]]
        for n in rng.sample(users, min(len(users), 2 + num_names // 15)):
            if rng.random() < 0.5:
                base[n].depends.append([(names[0], "", 0), (v, "", 0)])
            else:
                base[n].depends.append([(v, "", 0)])

    # Explicit conflicts between two names of one layer; dropped again below
    # if they make a testing package uninstallable.
    explicit: list[tuple[str, str]] = []
    for _ in range(round(CONFLICT_SHARE * num_names)):
        li = rng.randrange(1, layer_count)
        a, b = rng.sample(layers[li], 2)
        if a not in provided and b not in provided:
            base[a].conflicts.append((b, "", 0))
            explicit.append((a, b))

    names = [n for li in layers for n in li]
    removed = set(rng.sample(layers[-1], round(REMOVED_SHARE * num_names)))
    movable = [n for n in names if n not in removed and layer_of[n] > 0]
    updated = sorted(rng.sample(movable, round(UPDATE_SHARE * num_names)),
                     key=names.index)
    # New names, only in unstable, at the top layer.
    fresh = [new_name("") for _ in range(round(NEW_SHARE * num_names))]

    testing = [base[n] for n in names]
    _drop_bad_conflicts(testing, explicit, base)

    updates: dict[str, Stanza] = {}
    updated_set = set(updated)
    for n in updated:
        old = base[n]
        s = Stanza(n, 2, version_text(name_seeds[n], 2), [list(g) for g in old.depends],
                   list(old.conflicts), [], list(old.provides), old.section)
        for gi, group in enumerate(s.depends):
            if len(group) == 1 and group[0][0] in updated_set and rng.random() < 0.3:
                s.depends[gi] = [(group[0][0], ">=", 2)]
        updates[n] = s
    # Library transitions: an updated library breaks old versions of an
    # updated reverse dependency, so both must migrate together.
    rdeps: dict[str, list[str]] = {n: [] for n in names}
    for n in names:
        for group in base[n].depends:
            for dep, _, _ in group:
                if dep in rdeps and n not in rdeps[dep]:
                    rdeps[dep].append(n)
    for n in updated:
        users = [r for r in rdeps[n] if r in updated_set]
        if users and rng.random() < 0.15:
            updates[n].breaks.append((rng.choice(users), "<<", 2))

    # Planted broken updates and the updates they block.
    candidates = [n for n in updated if not any(
        b[0] == n for u in updates.values() for b in u.breaks)]
    rng.shuffle(candidates)
    libraries = [n for n in candidates if layer_of[n] < layer_count - 1]
    broken_names = libraries[:broken]
    broken_ids = []
    for n in broken_names:
        updates[n].depends.append([(f"{n}-data-missing", ">=", 1)])
        broken_ids.append((n, 2))
    blocked_ids: dict[PkgId, PkgId] = {}
    for n in candidates:
        if len(blocked_ids) >= blocked:
            break
        targets = [b for b in broken_names if layer_of[b] < layer_of[n]]
        if n in broken_names or not targets:
            continue
        target = targets[len(blocked_ids) % len(targets)]
        updates[n].depends.append([(target, ">=", 2)])
        blocked_ids[(n, 2)] = (target, 2)

    new_pkgs = []
    for n in fresh:
        s = Stanza(n, 1, version_text(name_seeds[n], 1), section="utils")
        for _ in range(rng.randint(1, 3)):
            d = pick_lower(layer_count - 1)
            if provided.get(d) is None and all(g[0][0] != d for g in s.depends):
                op = ">=" if d in updates and rng.random() < 0.5 else ""
                s.depends.append([(d, op, 2 if op else 0)])
        new_pkgs.append(s)

    unstable = [updates.get(n, base[n]) for n in names if n not in removed]
    unstable += new_pkgs
    return Archive(label=f"{tag}-{seed}-{num_names}", testing=testing,
                   unstable=unstable, broken=broken_ids, blocked=blocked_ids,
                   num_names=len(names) + len(fresh), seeds=name_seeds)


def _drop_bad_conflicts(testing: list[Stanza], explicit, base) -> None:
    """Remove explicit conflicts, newest first, until testing is trimmed."""
    while True:
        model = Model(testing, [])
        repo = set(model.testing)
        bad = [p for p in model.testing if not model.installable(p, repo)]
        if not bad:
            return
        closure = model.closure(bad[0])
        for a, b in reversed(explicit):
            if (a, 1) in closure or (b, 1) in closure:
                base[a].conflicts.remove((b, "", 0))
                explicit.remove((a, b))
                break
        else:
            raise RuntimeError(f"testing package {bad[0]} is uninstallable")


def write_pair(archive: Archive, directory, order_seed: int) -> tuple[str, str]:
    """Write Packages.testing and Packages.unstable with their stanzas in an
    order drawn from ``order_seed``; return their paths."""
    paths = []
    for part in ("testing", "unstable"):
        stanzas = list(getattr(archive, part))
        random.Random(f"stanzas:{order_seed}:{archive.label}:{part}").shuffle(stanzas)
        path = directory / f"Packages.{part}"
        path.write_bytes(render(stanzas, archive.seeds))
        paths.append(str(path))
    return paths[0], paths[1]


def input_stats(archive: Archive) -> dict:
    """Statistics of one archive pair, as recorded in the benchmark output."""
    model = archive.model()
    closures = [len(model.closure(p)) for p in model.packages]
    conflict_pairs = sum(len(v) for v in model.conflicts.values()) // 2
    testing_names = {n for n, _ in model.testing}
    updated = [n for n, r in model.unstable if r == 2 and n in testing_names]
    ends = {p for p, v in model.conflicts.items() if v}
    easy = sum(1 for p in model.packages if not model.closure(p) & ends)
    return {
        "packages": len(model.packages),
        "names": archive.num_names,
        "closure_median": statistics.median(closures),
        "closure_max": max(closures),
        "conflict_pairs": conflict_pairs,
        "easy_share": round(easy / len(model.packages), 4),
        "updated_share": round(len(updated) / archive.num_names, 4),
        "planted_broken": len(archive.broken),
        "planted_blocked": len(archive.blocked),
    }
