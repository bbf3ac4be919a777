#!/usr/bin/env python3
"""Count the option fields the library exposes, and fail above a ceiling.

Lists every `struct *Options` and `struct Exec` (la::Exec) declared in
src/**/*.hpp with its number of data members, then the total. Member
functions, static members, type aliases, nested types and comments are not
fields. Every field is a configuration some caller can select, and every
value a caller can select is a code path to keep working; the ceiling
(--max) keeps new knobs a deliberate decision.

Run: python3 tools/lint/option_census.py --root . --max 38
Exit status 0 at or below the ceiling (or without --max), 1 above it.
Registered as the `option_census` ctest and run in CI's lint job; unit-tested
by tools/lint/lint_selftest.py.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options|Exec)\s*(?:final\s*)?\{")
NAMESPACE_RE = re.compile(r"\bnamespace\s+([\w:]+)\s*\{")
ACCESS_RE = re.compile(r"\b(?:public|protected|private)\s*:(?!:)")
NON_FIELD_PREFIXES = ("static ", "static_assert", "using ", "typedef ",
                      "friend ", "template")
NESTED_TYPE_RE = re.compile(r"^(?:struct|class|union|enum)\b")


@dataclass
class Entry:
    path: str
    name: str
    fields: int


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
            continue
        # A quote after an alphanumeric is a digit separator (10'000).
        if c == '"' or (c == "'" and not (i > 0 and text[i - 1].isalnum())):
            i += 1
            while i < n and text[i] != c:
                i += 2 if text[i] == "\\" else 1
            out.append(" ")
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def _strip_template_args(decl: str) -> str:
    """Drop <...> argument lists (nested) from a declaration."""
    out = []
    depth = 0
    for c in decl:
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def _declaration_part(statement: str) -> str:
    """The statement up to its initializer (`=` that is not `==`)."""
    match = re.search(r"(?<![=!<>])=(?!=)", statement)
    return statement if match is None else statement[: match.start()]


def _is_function_or_type(statement: str) -> bool:
    statement = statement.strip()
    if NESTED_TYPE_RE.match(statement):
        return True
    return "(" in _strip_template_args(_declaration_part(statement))


def _fields_in(statement: str) -> int:
    statement = " ".join(statement.split())
    if not statement or statement.startswith(NON_FIELD_PREFIXES):
        return 0
    if _is_function_or_type(statement):
        return 0
    decl = _strip_template_args(_declaration_part(statement))
    return 1 + decl.count(",")


def count_fields(body: str) -> int:
    """Data members declared directly in a (comment-free) struct body."""
    body = ACCESS_RE.sub(" ", body)
    fields = 0
    statement: list[str] = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            if depth == 1:
                statement.append("{}")
            continue
        if c == "}":
            depth -= 1
            if depth == 0:
                text = "".join(statement)
                # A function body or nested type ends the statement here; a
                # brace initializer (`int x{0};`) runs on to its `;`.
                if _is_function_or_type(text.replace("{}", "")):
                    statement = []
            continue
        if depth > 0:
            continue
        if c == ";":
            fields += _fields_in("".join(statement).replace("{}", ""))
            statement = []
        else:
            statement.append(c)
    return fields


def _struct_body(code: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_brace + 1 : i]
    return code[open_brace + 1 :]


def census_source(text: str, path: str) -> list[Entry]:
    """Every option struct of one header, in declaration order."""
    code = strip_comments(text)
    entries = []
    for match in STRUCT_RE.finditer(code):
        namespaces = NAMESPACE_RE.findall(code, 0, match.start())
        scope = namespaces[-1].removeprefix("mimostat::") if namespaces else ""
        name = f"{scope}::{match.group(1)}" if scope else match.group(1)
        body = _struct_body(code, match.end() - 1)
        entries.append(Entry(path, name, count_fields(body)))
    return entries


def census(root: str) -> list[Entry]:
    entries: list[Entry] = []
    src = os.path.join(root, "src")
    headers = []
    for dirpath, _, filenames in os.walk(src):
        headers.extend(os.path.join(dirpath, f) for f in filenames
                       if f.endswith(".hpp"))
    for path in sorted(headers):
        with open(path, encoding="utf-8", errors="replace") as handle:
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            entries.extend(census_source(handle.read(), rel))
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--max", type=int, default=None,
                        help="fail when the total exceeds this many fields")
    args = parser.parse_args(argv)

    entries = census(args.root)
    width = max((len(e.name) for e in entries), default=0)
    for entry in entries:
        print(f"{entry.name:<{width}}  {entry.fields:>3}  {entry.path}")
    total = sum(e.fields for e in entries)
    print(f"total: {total} option fields in {len(entries)} structs")
    if args.max is not None and total > args.max:
        print(f"option_census: {total} fields exceed the ceiling of "
              f"{args.max}; retire an option before adding one, or raise "
              "--max deliberately")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
