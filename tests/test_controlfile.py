from __future__ import annotations

import functools
import random
import re

import pytest

from satmigrate import controlfile as controlfile_mod
from satmigrate.controlfile import (MalformedDependency, MalformedStanza,
                                    MalformedVersion, MissingField,
                                    PackageStanza, VersionConstraint,
                                    _fields_of_block, _split_stanza_blocks,
                                    compare_versions, parse_conflict_expr,
                                    parse_dependency_expr,
                                    parse_packages_stream, parse_provides)

from .generators import random_version
from .oracle import (block_fields, canonical_version, stanza_blocks,
                     two_walk_groups)


# -- rendering, the inverse of the parsers ------------------------------------

def format_dependency_expr(groups: tuple[tuple[VersionConstraint, ...], ...]
                           ) -> str:
    """Canonical rendering; reproduces accepted input token for token."""
    return ", ".join(" | ".join(str(alt) for alt in group) for group in groups)


def format_conflict_expr(constraints: tuple[VersionConstraint, ...]) -> str:
    return ", ".join(str(c) for c in constraints)


def render_stanza(stanza: PackageStanza) -> str:
    lines = [f"Package: {stanza.name}", f"Version: {stanza.version}"]
    if stanza.depends:
        lines.append(f"Depends: {format_dependency_expr(stanza.depends)}")
    if stanza.conflicts:
        lines.append(f"Conflicts: {format_conflict_expr(stanza.conflicts)}")
    if stanza.provides:
        lines.append(f"Provides: {', '.join(stanza.provides)}")
    return "\n".join(lines) + "\n"


def render_packages(stanzas: list[PackageStanza]) -> str:
    return "\n".join(render_stanza(s) for s in stanzas)


# -- version comparison -------------------------------------------------------

def test_identical_versions_equal():
    assert compare_versions("1.0", "1.0") == 0


def test_numeric_segments_compare_numerically():
    assert compare_versions("1.2", "1.10") < 0


def test_tilde_sorts_before_empty():
    assert compare_versions("1.0~rc1", "1.0") < 0


def test_epoch_dominates():
    assert compare_versions("1:0.9", "0.10") > 0


@pytest.mark.parametrize("a,b", [
    ("1.0", "1.0-0"),
    ("0:1.0", "1.0"),
    ("1.0", "1.00"),
    ("1a", "1a0"),
])
def test_equal_after_normalization(a, b):
    assert compare_versions(a, b) == 0
    assert canonical_version(a) == canonical_version(b)


@pytest.mark.parametrize("bad", ["", "abc:1", "1.0-", "-1", ":1", "1 0", "1!0"])
def test_malformed_versions_rejected(bad):
    with pytest.raises(MalformedVersion):
        compare_versions(bad, "1.0")


@pytest.mark.parametrize("relation, bound", [
    ("any", "1"), ("~=", "1"), ("", "1"), (">=", None), ("=", None)],
    ids=["any-with-bound", "unknown", "empty", "no-bound", "equal-no-bound"])
def test_version_constraint_rejects_bad_input(relation, bound):
    with pytest.raises(ValueError):
        VersionConstraint("b", relation, bound)
    # the named tuple's own builders take the same checks
    with pytest.raises(ValueError):
        VersionConstraint._make(("b", relation, bound))
    with pytest.raises(ValueError):
        VersionConstraint("b", ">=", "1")._replace(relation=relation, bound=bound)


def test_version_constraint_matches_its_relation_alone():
    rng = random.Random(89)
    test = {"<<": lambda c: c < 0, "<=": lambda c: c <= 0, "=": lambda c: c == 0,
            ">=": lambda c: c >= 0, ">>": lambda c: c > 0}
    versions = [random_version(rng) for _ in range(60)]
    for version, bound in zip(versions, versions[1:] + versions[:1]):
        c = compare_versions(version, bound)
        for relation, holds in test.items():
            constraint = VersionConstraint("b", relation, bound)
            assert constraint.matches("b", version) == holds(c)
            assert not constraint.matches("c", version)
        assert VersionConstraint("b").matches("b", version)
    # the tuple form: equal constraints are one dictionary key
    assert {VersionConstraint("b", ">=", "1"): 1}[VersionConstraint("b", ">=", "1")]


def test_letters_sort_before_other_characters():
    assert compare_versions("0a", "0+") < 0
    assert compare_versions("0+", "0.1") < 0


def test_version_order_is_total_on_random_sample():
    rng = random.Random(7)
    versions = [random_version(rng) for _ in range(300)]
    for a, b in zip(versions, versions[1:]):
        assert compare_versions(a, b) == -compare_versions(b, a)
        assert (compare_versions(a, b) == 0) == \
            (canonical_version(a) == canonical_version(b))
    ordered = sorted(versions, key=functools.cmp_to_key(compare_versions))
    for a, b in zip(ordered, ordered[1:]):
        assert compare_versions(a, b) <= 0
    # transitivity spot check on consecutive triples of the sorted list
    for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
        if compare_versions(a, b) < 0 and compare_versions(b, c) < 0:
            assert compare_versions(a, c) < 0


# -- dependency grammar -------------------------------------------------------

def test_single_bare_name():
    assert parse_dependency_expr("b") == ((VersionConstraint("b"),),)


def test_groups_and_alternatives():
    # hand parse: two AND-groups, the first with two alternatives
    groups = parse_dependency_expr("b (>= 2) | c, d (<< 1)")
    assert groups == (
        (VersionConstraint("b", ">=", "2"), VersionConstraint("c")),
        (VersionConstraint("d", "<<", "1"),),
    )


def test_empty_bound_is_malformed():
    with pytest.raises(MalformedDependency):
        parse_dependency_expr("b (>= )")


@pytest.mark.parametrize("bad", ["b | | c", "b (< 1)", "a,", "(>= 1)", "a b"])
def test_malformed_dependencies(bad):
    with pytest.raises(MalformedDependency):
        parse_dependency_expr(bad)


def test_malformed_dependency_reports_offset():
    with pytest.raises(MalformedDependency) as err:
        parse_dependency_expr("a, b (>= )")
    assert err.value.offset == 3  # position of 'b', the bad alternative
    assert err.value.text == "a, b (>= )"


def test_uncached_parse_of_valid_text_never_walks_offsets(monkeypatch):
    # without a cache the call gets a fresh one: each field is walked once,
    # and each distinct alternative is parsed once, at its offset
    import satmigrate.controlfile as controlfile_mod

    parsed = []
    original = controlfile_mod._parse_alternative

    def recording(text, start, end):
        parsed.append(text[start:end].strip())
        return original(text, start, end)

    monkeypatch.setattr(controlfile_mod, "_parse_alternative", recording)
    groups = parse_dependency_expr("b (>= 2) | c, d (<< 1), b (>= 2)")
    assert groups == (
        (VersionConstraint("b", ">=", "2"), VersionConstraint("c")),
        (VersionConstraint("d", "<<", "1"),),
        (VersionConstraint("b", ">=", "2"),),
    )
    assert groups[2][0] is groups[0][0]  # parsed once
    assert parse_conflict_expr("a, b (<< 2)") == (
        VersionConstraint("a"), VersionConstraint("b", "<<", "2"))
    assert parse_provides("x, y (= 2)") == ("x", "y")
    assert parsed == ["b (>= 2)", "c", "d (<< 1)", "a", "b (<< 2)", "x",
                      "y (= 2)"]


_GOOD_ALTERNATIVES = ["a", "lib-x", "b:any", "c (>= 1)", "d(<<2:1.0-1)",
                      "a (= 1)", "e ( >> 0~rc )", "f:native (<= 3)"]
_BAD_ALTERNATIVES = ["a b", "x/y", "(>= 1)", ":any", "b (>= 1", "c (>= )",
                     "d (< 1)", "e (~ 2)", "f (>= 1:)", "", " "]


def _random_field(rng: random.Random, sep: str) -> str:
    def alternative():
        pool = _BAD_ALTERNATIVES if rng.random() < 0.05 else _GOOD_ALTERNATIVES
        return rng.choice(pool)

    def spaced(mark):
        return " " * rng.randint(0, 2) + mark + " " * rng.randint(0, 2)

    def joined(mark, count, part):
        return part() + "".join(spaced(mark) + part() for _ in range(count - 1))

    if sep == ",":
        return spaced(joined(",", rng.randint(1, 5), alternative))
    return spaced(joined(",", rng.randint(1, 4), lambda: joined(
        "|", rng.randint(1, 3), alternative)))


def _groups_or_error(parse, *args):
    """The groups, a tuple, or the error's text, offset and reason, a list."""
    try:
        return parse(*args)
    except MalformedDependency as exc:
        return [exc.text, exc.offset, exc.reason]


def test_one_walk_parse_matches_the_two_walk_reference():
    from satmigrate.controlfile import _parse_groups

    rng = random.Random(23)
    shared: dict = {}
    errors = 0
    for _ in range(3000):
        sep = rng.choice("|,")
        text = _random_field(rng, sep)
        want = _groups_or_error(two_walk_groups, text, sep)
        errors += isinstance(want, list)
        for cache in ({}, shared):
            assert _groups_or_error(_parse_groups, text, sep, cache) == want, \
                text
    assert 300 < errors < 2700  # both outcomes are well covered


def test_architecture_qualifier_is_dropped():
    # the model has one architecture; "b:any" relates to b
    assert parse_dependency_expr("b:any (>= 1) | c:native") == (
        (VersionConstraint("b", ">=", "1"), VersionConstraint("c")),)


def test_conflicts_reject_alternatives():
    assert parse_conflict_expr("a, b (<< 2)") == (
        VersionConstraint("a"), VersionConstraint("b", "<<", "2"))
    with pytest.raises(MalformedDependency):
        parse_conflict_expr("a | b")


def test_provides_reduce_to_names():
    assert parse_provides("x, y (= 2)") == ("x", "y")


def _tokens(text: str) -> list[str]:
    return re.findall(r"<<|<=|>=|>>|=|[(),|]|[^\s,|()]+", text)


def test_pretty_printer_is_token_faithful():
    samples = [
        "b",
        "b(>=2)|c,d (<< 1)",
        "a , b|c (= 1:2.0-1) , d",
    ]
    for text in samples:
        groups = parse_dependency_expr(text)
        assert _tokens(format_dependency_expr(groups)) == _tokens(text)
        # printing is a fixed point
        assert format_dependency_expr(parse_dependency_expr(
            format_dependency_expr(groups))) == format_dependency_expr(groups)


# -- stanza parsing -----------------------------------------------------------

def test_minimal_stanza():
    stanzas = parse_packages_stream("Package: a\nVersion: 1.0\n\n")
    assert len(stanzas) == 1
    assert stanzas[0].name == "a"
    assert stanzas[0].version == "1.0"
    assert stanzas[0].depends == ()
    assert stanzas[0].conflicts == ()
    # every empty relation field is the one shared empty tuple
    assert stanzas[0].depends is stanzas[0].conflicts is stanzas[0].provides


def test_stanza_with_depends():
    stanzas = parse_packages_stream(
        "Package: a\nVersion: 1\nDepends: b (>= 2), c | d\n\n")
    assert stanzas[0].depends == (
        (VersionConstraint("b", ">=", "2"),),
        (VersionConstraint("c"), VersionConstraint("d")),
    )


def test_missing_version_reports_field_and_index():
    with pytest.raises(MissingField) as err:
        parse_packages_stream("Package: ok\nVersion: 1\n\nPackage: a\n")
    assert err.value.field_name == "Version"
    assert err.value.stanza_index == 1


def test_missing_package_field():
    with pytest.raises(MissingField) as err:
        parse_packages_stream("Version: 1\n")
    assert err.value.field_name == "Package"


def test_continuation_lines_and_unknown_fields():
    text = ("Package: a\nVersion: 1\nMaintainer: someone\n"
            "Depends: b,\n c | d\nDescription: stuff\n continued text\n\n")
    stanzas = parse_packages_stream(text)
    assert stanzas[0].depends == (
        (VersionConstraint("b"),),
        (VersionConstraint("c"), VersionConstraint("d")),
    )


def test_breaks_and_predepends_are_folded_in():
    text = ("Package: a\nVersion: 1\nPre-Depends: e\n"
            "Conflicts: b\nBreaks: c (<< 2)\n\n")
    stanza = parse_packages_stream(text)[0]
    assert stanza.depends == ((VersionConstraint("e"),),)
    assert stanza.conflicts == (VersionConstraint("b"),
                                VersionConstraint("c", "<<", "2"))


def test_architecture_field_is_ignored():
    # the model has one architecture; the field is unknown like any other
    plain = "Package: a\nVersion: 1\nDepends: b\n"
    tagged = "Package: a\nVersion: 1\nArchitecture: amd64\nDepends: b\n"
    assert parse_packages_stream(tagged) == parse_packages_stream(plain)


def test_bytes_input_accepted():
    stanzas = parse_packages_stream(b"Package: a\nVersion: 1\n\n")
    assert stanzas[0].name == "a"


def test_field_order_is_irrelevant():
    first = parse_packages_stream("Package: a\nVersion: 1\nDepends: b\n\n")
    second = parse_packages_stream("Depends: b\nVersion: 1\nPackage: a\n\n")
    assert first == second


def test_unparseable_line_is_rejected():
    with pytest.raises(MalformedStanza):
        parse_packages_stream("Package: a\nVersion: 1\nnonsense line\n")


_FIELD_NAMES = ["Package", "package", "PACKAGE", "Depends", "depends", "a b",
                "", "k\tk", "Pre-Depends", "x\x85", "\xa0Version"]
_FIELD_SEPS = [":", "", " :", ": ", "\t: ", "::"]
_FIELD_VALUES = ["", "v", " v ", "\x85v\xa0", "a:b", "b (>= 1) | c", "\u3000"]


def test_block_fields_match_the_rule_by_rule_reference():
    # names in several cases, with spaces, empty, or with whitespace around
    # them; lines with no ":" or two; continuation lines, also first
    rng = random.Random(97)
    errors = 0
    for _ in range(5000):
        lines = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                lines.append(rng.choice([" ", "\t"]) + rng.choice(["more", "x y "]))
            else:
                lines.append(rng.choice(_FIELD_NAMES) + rng.choice(_FIELD_SEPS)
                             + rng.choice(_FIELD_VALUES))
        lines = [line for line in lines if line.strip()] or ["a: b"]
        want = block_fields(lines)
        if isinstance(want, str):
            errors += 1
            with pytest.raises(MalformedStanza) as err:
                _fields_of_block("\n".join(lines), 5)
            assert (err.value.stanza_index, err.value.line) == (5, want)
        else:
            assert _fields_of_block("\n".join(lines), 5) == want
    assert 1000 < errors < 4000  # both outcomes are well covered


def test_each_distinct_version_is_checked_once_per_load(monkeypatch):
    # two files sharing a cache, with versions repeated across stanzas and
    # across the files; a bad version is still found after the good ones
    calls = []
    check = controlfile_mod._split_version

    def counted(version):
        calls.append(version)
        return check(version)

    monkeypatch.setattr(controlfile_mod, "_split_version", counted)
    cache: dict = {}
    parse_packages_stream("Package: a\nVersion: 1.0-1\n\n"
                          "Package: b\nVersion: 1.0-1\n\n"
                          "Package: c\nVersion: 2\n", cache)
    parse_packages_stream("Package: d\nVersion: 2\n\n"
                          "Package: e\nVersion: 1.0-1\n", cache)
    assert sorted(calls) == ["1.0-1", "2"]
    with pytest.raises(MalformedVersion):
        parse_packages_stream("Package: f\nVersion: 2\n\n"
                              "Package: g\nVersion: 1.0-\n", cache)


@pytest.mark.parametrize("text,repeated", [
    ("Package: a\nVersion: 1\nDepends: b\ndepends: c\n", "depends: c"),
    ("Package: a\nVersion: 1\nPACKAGE: z\n", "PACKAGE: z"),
    ("Package: a\nDescription: x\n more\nVersion: 1\nVersion: 2\n",
     "Version: 2"),
    ("Package: a\nVersion: 1\nVersion: 2\nnonsense line\n", "Version: 2"),
])
def test_repeated_field_is_rejected(text, repeated):
    # dpkg refuses a stanza naming a field twice: "duplicate value for field";
    # the first bad line in line order is the one reported
    with pytest.raises(MalformedStanza) as err:
        parse_packages_stream("Package: ok\nVersion: 1\n\n" + text)
    assert err.value.stanza_index == 1
    assert err.value.line == repeated


def test_empty_package_name_is_rejected():
    with pytest.raises(MalformedStanza) as err:
        parse_packages_stream("Package: a\nVersion: 1\n\nPackage: \nVersion: 1\n")
    assert err.value.stanza_index == 1


def test_round_trip_up_to_normalization():
    text = ("Package: a\nVersion: 1:2.0-1\nDepends: b(>=2)|c , d\n"
            "Conflicts: e\nProvides: virt\nArchitecture: any\n\n"
            "Package: b\nVersion: 2\n\n")
    stanzas = parse_packages_stream(text)
    assert parse_packages_stream(render_packages(stanzas)) == stanzas


def test_stanza_roundtrip_random_constraints():
    rng = random.Random(11)
    for _ in range(50):
        depends = []
        for _ in range(rng.randint(0, 3)):
            group = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    group.append(VersionConstraint(f"n{rng.randint(0, 5)}"))
                else:
                    group.append(VersionConstraint(
                        f"n{rng.randint(0, 5)}",
                        rng.choice(["<<", "<=", "=", ">=", ">>"]),
                        random_version(rng)))
            depends.append(tuple(group))
        stanza = PackageStanza(name=f"p{rng.randint(0, 9)}",
                               version=random_version(rng),
                               depends=tuple(depends))
        assert parse_packages_stream(render_packages([stanza])) == [stanza]


# -- line splitting -------------------------------------------------------------

def test_utf8_maintainer_with_byte_0x85_parses():
    # "Å" is C3 85 in UTF-8; latin-1 decoding makes 0x85 the NEL character
    data = ("Package: a\nVersion: 1\nMaintainer: Jens Ångström <j@example.org>\n"
            "Depends: b\n\nPackage: b\nVersion: 1\n").encode("utf-8")
    stanzas = parse_packages_stream(data)
    assert [(s.name, s.version) for s in stanzas] == [("a", "1"), ("b", "1")]
    assert stanzas[0].depends == ((VersionConstraint("b"),),)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028"])
def test_control_character_inside_a_field_stays_in_its_line(char):
    text = (f"Package: a\nVersion: 1\nDescription: one{char}two\n"
            f" more{char}text\n\nPackage: b\nVersion: 1\n")
    assert [s.name for s in parse_packages_stream(text)] == ["a", "b"]


def test_crlf_file_parses_like_lf_file():
    text = ("Package: a\nVersion: 1:2.0-1\nDepends: b (>= 2) | c,\n d\n"
            "Conflicts: e\nProvides: virt\n\n \t\nPackage: b\nVersion: 2\n")
    crlf = text.replace("\n", "\r\n")
    assert parse_packages_stream(crlf.encode("latin-1")) == \
        parse_packages_stream(text)
    assert len(parse_packages_stream(crlf)) == 2


def test_crlf_error_line_has_no_carriage_return():
    with pytest.raises(MalformedStanza) as err:
        parse_packages_stream("Package: a\r\nVersion: 1\r\nnonsense line\r\n")
    assert err.value.line == "nonsense line"


# whitespace of every kind str.strip() removes, "\r", and two characters
# that are not whitespace; "\n" is the most frequent
_BLOCK_CHARS = "\n\n\n\n\r\r  \t\x0b\x0c\x1c\x85\xa0\u2003\u3000ab:"
_BLOCK_LINES = ["", " ", "\t", "\r", " \r", "\x85", "\xa0 ", "\u3000", "\r\r",
                "a", "a:b", " b", "\tb", "a\r", "a \r\r", "\x85a", " \xa0b\x0c"]


def test_block_split_matches_the_line_by_line_reference():
    rng = random.Random(83)
    texts = ["", "\n", "\r", "a", "a\r", "a\r\n", " a\n\nb", "\n\n a\n b\n\n",
             "a\n \n\tb\r\n\r\n", "\r\n\r\n a\r\n", "a\n\x85\nb\n\xa0\n"]
    for _ in range(10000):
        # character by character, often without a final line break
        texts.append("".join(rng.choice(_BLOCK_CHARS)
                             for _ in range(rng.randint(0, 24))))
        # line by line: blank and whitespace-only lines, leading
        # continuation lines, LF and CRLF ends
        lines = [rng.choice(_BLOCK_LINES) for _ in range(rng.randint(0, 8))]
        texts.append(rng.choice(["\n", "\r\n"]).join(lines)
                     + rng.choice(["", "\n", "\r\n", "\r", " "]))
    for text in texts:
        blocks = _split_stanza_blocks(text)
        assert [tuple(block.split("\n")) for block in blocks] \
            == stanza_blocks(text), repr(text)


# -- parse sharing within one load ------------------------------------------------

_SHARED = ("Package: a\nVersion: 1\nDepends: b (>= 2) | c, d\nConflicts: e\n"
           "Provides: virt\n\n"
           "Package: b\nVersion: 2\nDepends: d\n\n")
_TESTING = _SHARED + "Package: c\nVersion: 1\n\n"
_UNSTABLE = ("Package: c\nVersion: 2\nDepends: d\n\n" + _SHARED
             + "Package: d\nVersion: 1\n\n")


def test_shared_cache_gives_the_stanzas_of_separate_parses():
    cache: dict = {}
    testing = parse_packages_stream(_TESTING, cache)
    unstable = parse_packages_stream(_UNSTABLE, cache)
    assert testing == parse_packages_stream(_TESTING)
    assert unstable == parse_packages_stream(_UNSTABLE)
    assert (len(testing), len(unstable)) == (3, 4)
    # a repeated block is one stanza object, a repeated alternative one
    # constraint object
    assert unstable[1] is testing[0] and unstable[2] is testing[1]
    assert unstable[0].depends[0][0] is testing[1].depends[0][0]
    # so the stanza both files share cannot be changed through either
    shared = unstable[1]
    with pytest.raises(AttributeError):
        shared.depends = ()
    with pytest.raises(AttributeError):
        shared.conflicts.append(VersionConstraint("x"))
    assert shared == parse_packages_stream(_SHARED)[0]


def test_separate_parses_share_nothing():
    first, second = parse_packages_stream(_TESTING), parse_packages_stream(_TESTING)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))


@pytest.mark.parametrize("broken, error, index", [
    ("Package: e\n", MissingField, 2),
    ("Package: a\nVersion: 1\nnonsense line\n", MalformedStanza, 2),
    ("Package: a\nVersion: 1\nDepends: b (>= 2) | , d\n", MalformedDependency,
     None),
])
def test_error_in_second_file_names_its_own_stanza(broken, error, index):
    cache: dict = {}
    parse_packages_stream(_TESTING, cache)
    with pytest.raises(error) as err:
        parse_packages_stream(_SHARED + broken, cache)
    if index is not None:
        assert err.value.stanza_index == index
    # the failed block was not cached: it fails again in a third file
    with pytest.raises(error):
        parse_packages_stream(broken, cache)


def test_block_one_byte_off_is_parsed_on_its_own():
    cache: dict = {}
    testing = parse_packages_stream(_TESTING, cache)
    changed = _SHARED.replace("(>= 2)", "(>= 3)")
    unstable = parse_packages_stream(changed, cache)
    assert unstable == parse_packages_stream(changed)
    assert unstable[0] is not testing[0]
    assert unstable[0].depends[0][0] == VersionConstraint("b", ">=", "3")
    assert testing[0].depends[0][0] == VersionConstraint("b", ">=", "2")


# the alternatives "b (>= 2)", "c" and "d" are in the cache after _TESTING;
# "new" is not, and the last alternative of each value does not parse
_AFTER_CACHED = {
    "Depends": "c, b (>= 2) | new, d | e (>> )",
    "Pre-Depends": "d | c,new|  e (<<)",
    "Conflicts": "c, b (>= 2), new, e (= 1:)",
    "Breaks": " d,c ,new , e f",
    "Provides": "c, b (>= 2), new, (= 1)",
}


@pytest.mark.parametrize("field", sorted(_AFTER_CACHED))
def test_malformed_alternative_after_cached_ones_raises_as_uncached(field):
    value = _AFTER_CACHED[field]
    broken = f"Package: x\nVersion: 1\n{field}: {value}\n"
    with pytest.raises(MalformedDependency) as uncached:
        parse_packages_stream(broken)
    cache: dict = {}
    parse_packages_stream(_TESTING, cache)
    with pytest.raises(MalformedDependency) as cached:
        parse_packages_stream(broken, cache)
    assert (cached.value.text, cached.value.offset, cached.value.reason) == \
        (uncached.value.text, uncached.value.offset, uncached.value.reason)
    text = value.strip()
    last = re.split("[,|]", text)[-1].strip()
    assert (cached.value.text, cached.value.offset) == (text, text.rindex(last))
    # what parsed before the error is cached; the field fails again
    assert "new" in cache
    with pytest.raises(MalformedDependency):
        parse_packages_stream(broken, cache)


def test_repeated_alternative_is_one_object_across_fields_and_files():
    cache: dict = {}
    first, = parse_packages_stream(
        "Package: a\nVersion: 1\nDepends: c (>= 2), d\nConflicts: e\n", cache)
    second, = parse_packages_stream(
        "Package: b\nVersion: 1\nPre-Depends: e | c (>= 2)\nBreaks: d\n"
        "Provides: c (>= 2)\n", cache)
    c_2, d = first.depends[0][0], first.depends[1][0]
    assert second.depends == ((first.conflicts[0], c_2),)
    assert second.depends[0][0] is first.conflicts[0]
    assert second.depends[0][1] is c_2 and second.conflicts[0] is d
    assert second.provides == ("c",) and second.provides[0] is c_2.name


def test_block_never_finds_an_alternatives_constraint():
    # "foo" is cached as an alternative; as a block it is a malformed line
    cache: dict = {}
    parse_packages_stream("Package: a\nVersion: 1\nDepends: foo\n", cache)
    with pytest.raises(MalformedStanza) as err:
        parse_packages_stream("foo\n", cache)
    assert err.value.line == "foo"
