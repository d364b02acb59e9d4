"""Where the benchmark finds the program and keeps its scratch files."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"


def use_source_tree() -> None:
    """Put the checkout's own satmigrate first on the import path; exit with
    status 2 when the checkout has no satmigrate sources."""
    if not (SRC / "satmigrate" / "cli.py").is_file():
        print(f"error: no satmigrate sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
