#!/usr/bin/env python3
"""Count the library's lines of code, and fail above a ceiling.

Counts the non-blank, non-comment lines of src/**/*.{hpp,cpp} (comments
blanked by option_census.strip_comments, so a line holding only a comment
does not count) and prints the raw line count beside it, per top-level
module and in total. A net drop in src/ with the same behaviour is
progress; the ceiling (--max) makes growth a deliberate decision.

Run: python3 tools/lint/src_size.py --root . --max 10261
Exit status 0 at or below the ceiling (or without --max), 1 above it.
Registered as the `src_size` ctest and run in CI's lint job; unit-tested by
tools/lint/lint_selftest.py.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from option_census import strip_comments  # noqa: E402


@dataclass
class Count:
    raw: int = 0
    code: int = 0


def count_source(text: str) -> Count:
    """Raw lines, and lines with code once comments are blanked out."""
    lines = text.splitlines()
    code = sum(1 for line in strip_comments(text).splitlines() if line.strip())
    return Count(len(lines), code)


def count_tree(root: str) -> dict[str, Count]:
    """Per top-level directory of src/ (files directly in src/ under "")."""
    src = os.path.join(root, "src")
    modules: dict[str, Count] = {}
    for dirpath, _, filenames in os.walk(src):
        for name in filenames:
            if not name.endswith((".hpp", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, src).replace(os.sep, "/")
            module = rel.split("/")[0] if "/" in rel else ""
            with open(path, encoding="utf-8", errors="replace") as handle:
                count = count_source(handle.read())
            total = modules.setdefault(module, Count())
            total.raw += count.raw
            total.code += count.code
    return modules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--max", type=int, default=None,
                        help="fail when src/ has more non-comment lines")
    args = parser.parse_args(argv)

    modules = count_tree(args.root)
    total = Count()
    print(f"{'module':<10} {'code':>6} {'raw':>6}")
    for module in sorted(modules):
        count = modules[module]
        print(f"{module or '.':<10} {count.code:>6} {count.raw:>6}")
        total.raw += count.raw
        total.code += count.code
    print(f"total: {total.code} non-comment lines ({total.raw} raw) in src/")
    if args.max is not None and total.code > args.max:
        print(f"src_size: {total.code} lines exceed the ceiling of "
              f"{args.max}; remove code before adding more, or raise --max "
              "deliberately")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
