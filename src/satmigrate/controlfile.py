"""Parsing of Debian-style ``Packages`` stanzas and dependency expressions.

Version strings follow the classic dpkg shape ``[epoch:]upstream[-revision]``
and are ordered by the alternating non-digit/digit run comparison with ``~``
sorting before everything, including the end of a run.

A load parses each distinct piece of text once: the parses of its files
share one cache (``parse_packages_stream``'s ``cache``), keyed by the
text of each block and of each dependency alternative, and holding the
version strings checked so far. A file is split into its blocks in one
pass over the text, and a block into lines only when the cache lacks it.
So a block that repeats, as testing's blocks do in unstable, is parsed
once and yields one stanza object, a repeated dependency alternative
yields one constraint object, and a version that many stanzas share is
checked once. The cache lives only as long as the load; a parse called
without one gets a fresh one. A parsed block's lines and each of its
dependency fields are walked once, and an error names the first defect
in text order.

A stanza is a ``PackageStanza`` and each constraint a
``VersionConstraint``, both named tuples, so ``repo.build_universe``
hashes and compares them at C level. Packages are interned as integer
ids afterwards, once, by ``repo.build_universe``.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

RELATIONS = ("<<", "<=", "=", ">=", ">>")
ANY = "any"

_VERSION_CHARS = frozenset("0123456789abcdefghijklmnopqrstuvwxyz"
                           "ABCDEFGHIJKLMNOPQRSTUVWXYZ.+~-")
_NAME_FORBIDDEN = frozenset(" \t,|()/")


class ControlFileError(Exception):
    """Base class for control-file and grammar errors."""


class MissingField(ControlFileError):
    def __init__(self, field_name: str, stanza_index: int):
        super().__init__(f"stanza {stanza_index}: missing required field '{field_name}'")
        self.field_name = field_name
        self.stanza_index = stanza_index


class MalformedStanza(ControlFileError):
    def __init__(self, stanza_index: int, line: str):
        super().__init__(f"stanza {stanza_index}: cannot parse line {line!r}")
        self.stanza_index = stanza_index
        self.line = line


class MalformedDependency(ControlFileError):
    def __init__(self, text: str, offset: int, reason: str):
        super().__init__(f"offset {offset} in {text!r}: {reason}")
        self.text = text
        self.offset = offset
        self.reason = reason


class MalformedVersion(ControlFileError):
    def __init__(self, version: str, reason: str):
        super().__init__(f"bad version {version!r}: {reason}")
        self.version = version
        self.reason = reason


# ---------------------------------------------------------------------------
# Version ordering


def _split_version(version: str) -> tuple[int, str, str]:
    """Split into (epoch, upstream, revision); revision is '' when absent."""
    if not version or not version.isascii():
        raise MalformedVersion(version, "empty or non-ASCII")
    rest = version
    epoch = 0
    if ":" in rest:
        head, _, rest = rest.partition(":")
        if not head.isdigit():
            raise MalformedVersion(version, "epoch must be numeric")
        epoch = int(head)
    if not rest:
        raise MalformedVersion(version, "empty upstream part")
    if "-" in rest:
        upstream, _, revision = rest.rpartition("-")
        if not upstream or not revision:
            raise MalformedVersion(version, "empty part around '-'")
    else:
        upstream, revision = rest, ""
    for part in (upstream, revision):
        if not set(part) <= _VERSION_CHARS:
            raise MalformedVersion(version, "invalid character")
    return epoch, upstream, revision


def _char_order(c: str) -> int:
    # dpkg ordering: '~' before end-of-part, letters before non-letters.
    if c == "~":
        return -1
    if c.isdigit():
        return 0
    if c.isalpha():
        return ord(c)
    return ord(c) + 256


def _compare_part(a: str, b: str) -> int:
    """Alternating non-digit/digit run comparison of one version part."""
    i = j = 0
    la, lb = len(a), len(b)
    while i < la or j < lb:
        # Non-digit run: compare character orders, end-of-run counts as 0.
        while (i < la and not a[i].isdigit()) or (j < lb and not b[j].isdigit()):
            ac = _char_order(a[i]) if i < la else 0
            bc = _char_order(b[j]) if j < lb else 0
            if ac != bc:
                return -1 if ac < bc else 1
            i += 1
            j += 1
        # Digit run: numeric comparison, missing run counts as 0.
        while i < la and a[i] == "0":
            i += 1
        while j < lb and b[j] == "0":
            j += 1
        first_diff = 0
        while i < la and j < lb and a[i].isdigit() and b[j].isdigit():
            if not first_diff:
                first_diff = (a[i] > b[j]) - (a[i] < b[j])
            i += 1
            j += 1
        if i < la and a[i].isdigit():
            return 1
        if j < lb and b[j].isdigit():
            return -1
        if first_diff:
            return first_diff
    return 0


def compare_versions(v1: str, v2: str) -> int:
    """Total order on version strings: negative, zero or positive like cmp().

    Epoch dominates, then the upstream part, then the revision (absent
    revision compares like the empty string, which equals "0").
    """
    e1, u1, r1 = _split_version(v1)
    e2, u2, r2 = _split_version(v2)
    if e1 != e2:
        return -1 if e1 < e2 else 1
    c = _compare_part(u1, u2)
    if c:
        return c
    return _compare_part(r1, r2)


# ---------------------------------------------------------------------------
# Dependency grammar


# the test of each relation on compare_versions(version, bound)
_RELATION_TESTS = {"<<": operator.lt, "<=": operator.le, "=": operator.eq,
                   ">=": operator.ge, ">>": operator.gt}


class _Constraint(NamedTuple):
    name: str
    relation: str = ANY
    bound: str | None = None


class VersionConstraint(_Constraint):
    """One alternative of a dependency: a name plus an optional version range.

    A named tuple, so it hashes and compares at C level; a relation other
    than "any" needs a bound, and "any" takes none.
    """

    __slots__ = ()

    def __new__(cls, name: str, relation: str = ANY, bound: str | None = None):
        if relation == ANY:
            if bound is not None:
                raise ValueError("relation 'any' cannot carry a bound")
        elif relation not in RELATIONS or bound is None:
            raise ValueError(f"bad relation {relation!r}")
        return super().__new__(cls, name, relation, bound)

    @classmethod
    def _make(cls, iterable) -> VersionConstraint:
        # _replace builds through _make; keep it to the checks of __new__
        return cls(*iterable)

    def matches(self, name: str, version: str) -> bool:
        if name != self.name:
            return False
        if self.relation == ANY:
            return True
        return _RELATION_TESTS[self.relation](
            compare_versions(version, self.bound), 0)

    def __str__(self) -> str:
        if self.relation == ANY:
            return self.name
        return f"{self.name} ({self.relation} {self.bound})"


def _check_name(name: str, text: str, offset: int) -> str:
    """The name of a relation, less an architecture qualifier such as
    ":any"; the model has one architecture (Debian Policy, section 7.1)."""
    base = name.partition(":")[0]
    if not base or not name.isascii() or not _NAME_FORBIDDEN.isdisjoint(name):
        raise MalformedDependency(text, offset, f"bad package name {name!r}")
    return base


def _parse_alternative(text: str, start: int, end: int) -> VersionConstraint:
    """The alternative text[start:end]; an error's offset is into text."""
    chunk = text[start:end]
    stripped = chunk.strip()
    offset = start + (len(chunk) - len(chunk.lstrip()))
    if not stripped:
        raise MalformedDependency(text, offset, "empty alternative")
    if "(" in stripped:
        head, _, tail = stripped.partition("(")
        name = _check_name(head.strip(), text, offset)
        if not tail.endswith(")"):
            raise MalformedDependency(text, offset, "unterminated version constraint")
        inner = tail[:-1].strip()
        for rel in ("<<", "<=", ">=", ">>", "="):
            if inner.startswith(rel):
                bound = inner[len(rel):].strip()
                if not bound:
                    raise MalformedDependency(text, offset, "empty version bound")
                try:
                    _split_version(bound)
                except MalformedVersion as exc:
                    raise MalformedDependency(text, offset, exc.reason) from exc
                return VersionConstraint(name, rel, bound)
        raise MalformedDependency(text, offset, f"bad relation in {inner!r}")
    name = _check_name(stripped, text, offset)
    return VersionConstraint(name)


def _parse_groups(text: str, sep: str, cache: dict | None
                  ) -> tuple[tuple[VersionConstraint, ...], ...]:
    """The comma-separated groups of text, each split at sep into its
    alternatives; with sep "," each group is one alternative.

    The fields are split with str.split. Each stripped alternative is
    looked up in the cache, a fresh one when there is none (see
    parse_packages_stream); only a group with one the cache lacks is
    walked again by ``_parse_group``, which parses it at its offset. So
    each group's alternatives are looked up once, in one C-level pass,
    and an error carries the text, the offset of the first bad
    alternative and the reason.
    """
    if cache is None:
        cache = {}
    get = cache.get
    groups = []
    start = 0
    for group in text.split(","):
        alternatives = tuple(map(get, map(str.strip, group.split(sep))))
        if not all(alternatives):  # a constraint is a non-empty tuple
            alternatives = _parse_group(text, start, group, sep, cache)
        groups.append(alternatives)
        start += len(group) + 1
    return tuple(groups)


def _parse_group(text: str, start: int, group: str, sep: str, cache: dict
                 ) -> tuple[VersionConstraint, ...]:
    """The alternatives of group, which starts at offset start of text, in
    order; each piece's offset is the length of the pieces and separators
    before it, and one the cache lacks is parsed there and added."""
    alternatives = []
    for chunk in group.split(sep):
        end = start + len(chunk)
        key = chunk.strip()
        constraint = cache.get(key)
        if constraint is None:
            constraint = cache[key] = _parse_alternative(text, start, end)
        alternatives.append(constraint)
        start = end + 1
    return tuple(alternatives)


def parse_dependency_expr(text: str, cache: dict | None = None
                          ) -> tuple[tuple[VersionConstraint, ...], ...]:
    """Parse comma-separated AND-groups of '|'-separated alternatives."""
    if not text.strip():
        return ()
    return _parse_groups(text, "|", cache)


def parse_conflict_expr(text: str, cache: dict | None = None
                        ) -> tuple[VersionConstraint, ...]:
    """Parse a comma-separated conflict list (alternatives are not allowed)."""
    if not text.strip():
        return ()
    if "|" in text:
        raise MalformedDependency(text, text.find("|"), "'|' not allowed in conflicts")
    return tuple([c for c, in _parse_groups(text, ",", cache)])


def parse_provides(text: str, cache: dict | None = None) -> tuple[str, ...]:
    """Parse a Provides list; versioned provides are reduced to their name."""
    if not text.strip():
        return ()
    return tuple([c.name for c, in _parse_groups(text, ",", cache)])


# ---------------------------------------------------------------------------
# Stanza parsing


class PackageStanza(NamedTuple):
    """One parsed Packages stanza.

    ``depends`` holds AND-groups of alternatives; ``conflicts`` is a flat
    constraint tuple (Breaks is folded in); ``provides`` holds virtual
    names. Every relation field, and each group, is a tuple.
    """

    name: str
    version: str
    depends: tuple[tuple[VersionConstraint, ...], ...] = ()
    conflicts: tuple[VersionConstraint, ...] = ()
    provides: tuple[str, ...] = ()


# a line break, then any blank lines, then a line break: str patterns take
# \s to be str.isspace(), the characters str.strip() removes
_BLANK_LINES = re.compile(r"\n\s*\n")


def _split_stanza_blocks(text: str) -> list[str]:
    """The blank-line separated blocks of text, each without line ends
    around it, split in one pass.

    Lines end at "\n" alone, less one trailing "\r", so a CRLF file parses
    like its LF twin. str.splitlines() would also end a line at U+0085 and
    other control characters, and latin-1 decoding turns the second byte of
    a UTF-8 "Å" into U+0085. A line is blank when it holds only what
    str.strip() removes. With a line break added at each end, blank lines
    before the first block and after the last are separators like any
    other; cutting the added breaks leaves the first and last pieces
    either a block or empty.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    blocks = _BLANK_LINES.split("\n" + text + "\n")
    blocks[0] = blocks[0][1:]
    blocks[-1] = blocks[-1][:-1]
    return list(filter(None, blocks))


def _fields_of_block(block: str, index: int) -> dict[str, str]:
    """The fields of a stanza's lines, keyed by lower-cased name; the first
    bad line in line order, a repeated field's included, is raised."""
    fields: dict[str, str] = {}
    key = None
    for line in block.split("\n"):
        if line[0] in " \t":
            if key is None:
                raise MalformedStanza(index, line)
            fields[key] += " " + line.strip()
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        if not sep or not key or " " in key or key in fields:
            raise MalformedStanza(index, line)
        fields[key] = value.strip()
    return fields


# the relation fields a stanza reads, in the order their errors are raised
_RELATION_FIELDS = ("depends", "pre-depends", "conflicts", "breaks", "provides")


def _parse_stanza(block: str, index: int, cache: dict, versions: set[str]
                  ) -> PackageStanza:
    """The stanza of one block; its version is checked unless it is in
    versions, the versions this load has checked, and added."""
    fields = _fields_of_block(block, index)
    name = fields.get("package")
    if name is None:
        raise MissingField("Package", index)
    version = fields.get("version")
    if version is None:
        raise MissingField("Version", index)
    if not name or not name.isascii() or not _NAME_FORBIDDEN.isdisjoint(name):
        raise MalformedStanza(index, f"Package: {name}")
    if version not in versions:
        _split_version(version)
        versions.add(version)
    # a whitespace-only line splits the block, so no value is blank but
    # an empty one, which holds no relation
    depends, pre_depends, conflicts, breaks, provides = map(
        fields.get, _RELATION_FIELDS)
    depends = _parse_groups(depends, "|", cache) if depends else ()
    if pre_depends:
        depends += _parse_groups(pre_depends, "|", cache)
    conflicts = parse_conflict_expr(conflicts, cache) if conflicts else ()
    if breaks:
        conflicts += parse_conflict_expr(breaks, cache)
    provides = parse_provides(provides, cache) if provides else ()
    return PackageStanza(name, version, depends, conflicts, provides)


def parse_packages_stream(data: bytes | str, cache: dict | None = None
                          ) -> list[PackageStanza]:
    """Parse a Packages file into stanzas.

    Stanzas are blank-line separated ``Key: value`` blocks with indented
    continuation lines; unknown fields are ignored and field order is free,
    but a field named twice, in any case, is malformed, as in dpkg, and
    caught at the line that names it again. The blocks are split from the
    text in one pass, and a block is split into lines only when it is
    parsed.

    ``cache`` holds what one load has parsed so far, for the files of that
    load to share: each block, keyed by its text in a 1-tuple, maps to its
    stanza, and each dependency alternative, keyed by its stripped text,
    to its constraint; the key None holds the set of version strings
    checked so far. The tuple keeps the first two kinds of key apart, so a
    block never finds an alternative's constraint. A repeated block
    therefore yields the same stanza object, and a repeated alternative
    the same constraint, parsed once, and each distinct version is
    checked once. Only what parses is added, so an error names the
    stanza it occurs in. Without a cache, the call uses a fresh one of
    its own.
    """
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if cache is None:
        cache = {}
    versions = cache.setdefault(None, set())
    stanzas = []
    for index, block in enumerate(_split_stanza_blocks(text)):
        key = (block,)
        stanza = cache.get(key)
        if stanza is None:
            stanza = cache[key] = _parse_stanza(block, index, cache, versions)
        stanzas.append(stanza)
    return stanzas
