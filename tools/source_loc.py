#!/usr/bin/env python
"""Python source line counts for ``src/repro/``, per top-level package.

Prints one row per top-level package (``core``, ``sat``, ``search``, ...)
plus a ``(modules)`` row for the modules directly under ``src/repro/``,
and a total.  Lines are physical lines, as ``wc -l`` counts them, so a
row moves by exactly the lines a change adds or deletes.  The number is
informational: net source LOC is tracked from change to change, and no
threshold gates it.

Usage::

    python tools/source_loc.py
    python tools/source_loc.py --root path/to/src/repro
"""

from __future__ import annotations

import argparse
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
ROOT_MODULES = "(modules)"


def count_lines(path: Path) -> int:
    """Physical line count of one file."""
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def line_counts(root: Path) -> dict[str, int]:
    """Lines of Python source per top-level package under ``root``."""
    counts: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        group = parts[0] if len(parts) > 1 else ROOT_MODULES
        counts[group] = counts.get(group, 0) + count_lines(path)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="package directory to count (default: src/repro)")
    args = parser.parse_args(argv)
    counts = line_counts(args.root)
    width = max(len(name) for name in (*counts, "total"))
    for name, lines in sorted(counts.items()):
        print(f"{name:<{width}}  {lines:6d}")
    print(f"{'total':<{width}}  {sum(counts.values()):6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
