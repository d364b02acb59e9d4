"""SAT-based testing-migration solver for Debian-style repositories."""

from .controlfile import (PackageStanza, VersionConstraint, compare_versions,
                          parse_dependency_expr, parse_packages_stream)
from .closure import ClosureIndex
from .encoder import EncodedProblem, build_encoding
from .engine import (MigrationRequest, MigrationResult, render_hints,
                     solve_migration)
from .repo import Package, PolicyRules, Universe, build_universe, is_admissible

__version__ = "0.1.0"

__all__ = [
    "ClosureIndex",
    "EncodedProblem",
    "MigrationRequest",
    "MigrationResult",
    "Package",
    "PackageStanza",
    "PolicyRules",
    "Universe",
    "VersionConstraint",
    "build_encoding",
    "build_universe",
    "compare_versions",
    "is_admissible",
    "parse_dependency_expr",
    "parse_packages_stream",
    "render_hints",
    "solve_migration",
]
