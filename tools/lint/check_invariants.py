#!/usr/bin/env python3
"""Project-specific determinism & concurrency invariant linter.

Enforces the rules the compiler cannot check — the discipline behind the
repo's bitwise-determinism contract (every parallel path identical to its
scalar reference at any thread count) and its byte-stable exports:

  unordered-iteration  Iterating a std::unordered_{map,set} feeds
                       implementation-defined order into whatever consumes
                       the loop. That is exactly the dtmc::modelSignature
                       class of bug: hashes, exported bytes or row order
                       silently depend on libstdc++'s hash seed. Iterate a
                       sorted copy, or allow explicitly when the loop is an
                       order-independent reduction.
  raw-rng              std::rand/srand/std::random_device outside util/rng.
                       All randomness must flow through the counter-derived
                       util:: streams, or sampled results stop being
                       bit-reproducible per seed.
  raw-thread           std::thread/std::jthread construction outside
                       engine/thread_pool.cpp. All parallelism rides the
                       engine pool so determinism (pre-assigned result
                       slots) and TSan coverage hold everywhere. (Static
                       members like std::thread::hardware_concurrency are
                       fine.)
  atomic-float         std::atomic<double|float> accumulation reorders
                       floating-point additions by scheduling; the la::
                       bitwise contract requires sequential (per-slot)
                       reductions. There is no legitimate use in this tree.
  byte-truth-mask      std::vector<std::uint8_t> truth-mask declarations in
                       src/ outside la/. State sets and masks are packed
                       la::BitVector everywhere (8x less memory,
                       word-parallel bulk ops); the byte representation
                       survives only at the la:: bridge (fromBytes/toBytes)
                       and as the test/bench oracle. Allow explicitly when a
                       byte vector is genuinely not a truth mask.
  guarded-by           In a class that owns a util::Mutex or std::mutex,
                       every other data member named *_ must either carry a
                       MIMOSTAT_GUARDED_BY / MIMOSTAT_PT_GUARDED_BY
                       annotation or an explicit allow comment — so Clang's
                       -Wthread-safety analysis (and the reader) knows which
                       lock protects what.
  raw-wallclock        Direct std::chrono clock reads / util::Stopwatch in
                       src/ outside src/util/ + src/obs/. Library code times
                       phases through obs::Span and the obs:: metrics
                       registry, so wall-clock stays on the diagnostics side
                       of the determinism boundary and can never feed
                       exported values or ordering. tests/ and bench/ keep
                       raw timing freely.
  simd-intrinsics      Raw vector intrinsics / vendor intrinsic headers
                       (<immintrin.h>, <arm_neon.h>, _mm*/__m*/v*q_f64)
                       outside src/la/. Vector code lives behind the la::
                       SIMD dispatch layer (src/la/simd*.cpp): per-target
                       kernels built with per-TU ISA flags, cpuid-gated at
                       runtime, forceable via la::Exec::simd/MIMOSTAT_SIMD
                       and asserted bitwise against the scalar reference.
                       Intrinsics elsewhere dodge all of that — and a stray
                       FMA would silently change rounding.
  reduction-boundary   Quotient block-map access (`blockOf`, indexing the
                       representative table) in src/ outside src/reduce/ +
                       src/lump/ + src/mc/. The bisimulation quotient's
                       state indexing is private to the reduction layers;
                       no result crosses back to original-state indexing.
                       Hand-rolled block-map arithmetic
                       elsewhere is one off-by-one away from handing a
                       caller quotient-indexed values under an
                       original-indexed contract.
  transient-step       Left products (`Side::kLeft`, the forward side of
                       la::spmm) in src/ outside src/la/. Every
                       pi_{t+1} = pi_t P in mc/ rides
                       mc::TransientSweep::advance, which owns the exact
                       stationary stop (stop multiplying once a step
                       returns its input bit for bit); a hand-rolled loop
                       forks that exit and its bitwise-oracle tests. Only
                       the sweep's own kernel call carries an allow.
  hidden-thread-state  `thread_local` in src/ outside src/obs/. Models and
                       the layers that call them are reentrant: per-call
                       scratch comes from the caller (dtmc::Successors lends
                       the scratch State a model edits), so the result of a
                       call never depends on which pool thread ran it or
                       what that thread ran before. Per-thread state hidden
                       in a model breaks the dtmc/model.hpp concurrency
                       contract. obs:: keeps its per-thread span stack and
                       metric shard.

Escape hatch: a line (or the line above it) containing
    lint:allow(<rule>) or lint:allow(<rule>: <reason>)
suppresses that rule for that line. Use it to document *why* the pattern is
safe, e.g. `// lint:allow(unordered-iteration: order-independent min scan)`.

Exit status 0 when clean, 1 with a findings report otherwise. Run as a
ctest (`lint_invariants`) and in CI's lint job; unit-tested by
tools/lint/lint_selftest.py.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CXX_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc", ".hh")
DEFAULT_SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")

ALLOW_RE = re.compile(r"lint:allow\(([A-Za-z0-9_-]+)(?::[^)]*)?\)")


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments (keeps column layout).

    Good enough for line-oriented rules: the linter must not fire on code
    that only *mentions* a pattern inside a string or a comment.
    """
    out = []
    i, n = 0, len(line)
    mode = None  # None | '"' | "'"
    while i < n:
        c = line[i]
        if mode is None:
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest is a comment
            if c in "\"'":
                mode = c
                out.append(" ")
            else:
                out.append(c)
        else:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
            out.append(" ")
        i += 1
    return "".join(out)


def _allowed(lines: list[str], idx: int, rule: str) -> bool:
    """An allow comment on the flagged line or the line above suppresses."""
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            for match in ALLOW_RE.finditer(lines[j]):
                if match.group(1) == rule:
                    return True
    return False


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


# --------------------------------------------------------------------- rules


def check_unordered_iteration(path: str, lines: list[str]) -> list[Violation]:
    """Flag iteration over std::unordered_{map,set} variables.

    Detects (a) range-for directly over an expression mentioning an
    unordered container type, and (b) range-for / .begin() iteration over a
    variable whose declaration in the same file names an unordered type.
    Heuristic by design: one file is the unit of analysis, matching how the
    codebase declares its containers next to their loops.
    """
    unordered_decl = re.compile(
        r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
        r"(?:&\s*)?([A-Za-z_]\w*)\s*[;({=]"
    )
    alias_decl = re.compile(
        r"\busing\s+([A-Za-z_]\w*)\s*=\s*[^;]*std\s*::\s*unordered_"
        r"(?:map|set|multimap|multiset)\b"
    )
    code = [_strip_comments_and_strings(l) for l in lines]

    names: set[str] = set()
    aliases: set[str] = set()
    for stripped in code:
        for match in unordered_decl.finditer(stripped):
            names.add(match.group(1))
        for match in alias_decl.finditer(stripped):
            aliases.add(match.group(1))
    if aliases:
        aliased_var = re.compile(
            r"\b(?:" + "|".join(re.escape(a) for a in aliases) + r")\s*"
            r"(?:&\s*)?([A-Za-z_]\w*)\s*[;({=]"
        )
        for stripped in code:
            for match in aliased_var.finditer(stripped):
                names.add(match.group(1))

    out: list[Violation] = []
    range_for = re.compile(r"\bfor\s*\(.*:\s*\*?([A-Za-z_][\w.\->]*)\s*\)")
    direct_for = re.compile(r"\bfor\s*\(.*:\s*[^)]*unordered_(?:map|set)")
    # Only begin(): comparing an iterator against end() (find-pattern) does
    # not traverse the container.
    begin_iter = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
    for idx, stripped in enumerate(code):
        hit = None
        if direct_for.search(stripped):
            hit = "range-for over an unordered container"
        else:
            match = range_for.search(stripped)
            if match:
                base = match.group(1).split(".")[0].split("->")[0]
                if base in names:
                    hit = f"range-for over unordered container '{base}'"
            if hit is None:
                match = begin_iter.search(stripped)
                if match and match.group(1) in names:
                    hit = f"iterator loop over unordered container '{match.group(1)}'"
        if hit and not _allowed(lines, idx, "unordered-iteration"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "unordered-iteration",
                    hit + " — iteration order is implementation-defined and "
                    "must not feed exported/row/CSV/hash order; iterate a "
                    "sorted copy or add "
                    "lint:allow(unordered-iteration: <why order-independent>)",
                )
            )
    return out


def check_raw_rng(path: str, lines: list[str]) -> list[Violation]:
    if re.search(r"(^|/)util/rng\.(hpp|cpp)$", _posix(path)):
        return []
    pattern = re.compile(
        r"\bstd\s*::\s*(rand|random_device|mt19937(?:_64)?)\b|(?<![\w:])srand\s*\("
    )
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(lines, idx, "raw-rng"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "raw-rng",
                    "raw standard-library RNG outside util/rng — all "
                    "randomness must use the counter-derived util:: streams "
                    "(util::Xoshiro256, smc::deriveSeed) or results stop "
                    "being bit-reproducible per seed",
                )
            )
    return out


def check_raw_thread(path: str, lines: list[str]) -> list[Violation]:
    if re.search(r"(^|/)engine/thread_pool\.(hpp|cpp)$", _posix(path)):
        return []
    # std::thread followed by :: is a static-member access
    # (hardware_concurrency), not a thread construction.
    pattern = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(lines, idx, "raw-thread"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "raw-thread",
                    "raw std::thread outside engine/thread_pool.cpp — "
                    "parallel work must ride engine::ThreadPool (pre-assigned "
                    "result slots keep it deterministic and TSan-covered)",
                )
            )
    return out


def check_atomic_float(path: str, lines: list[str]) -> list[Violation]:
    pattern = re.compile(
        r"\bstd\s*::\s*atomic\s*<\s*(?:double|float|long\s+double)\s*>"
    )
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(lines, idx, "atomic-float"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "atomic-float",
                    "std::atomic floating-point accumulation orders additions "
                    "by scheduling — the la:: bitwise contract requires "
                    "sequential per-slot reductions (merge per-task partials "
                    "in index order instead)",
                )
            )
    return out


def check_byte_truth_mask(path: str, lines: list[str]) -> list[Violation]:
    """Flag std::vector<std::uint8_t> declarations in src/ outside la/.

    The exact stack's truth masks are packed la::BitVector; a fresh
    byte-per-state vector in checking code silently forks the
    representation (8x the memory, no word-parallel ops) and dodges the
    bit-identity tests that pin the packed kernels to the byte oracle.
    tests/ and bench/ keep byte vectors freely — they ARE the oracle.
    """
    posix = _posix(path)
    if not re.search(r"(^|/)src/", posix) or re.search(r"(^|/)src/la/", posix):
        return []
    pattern = re.compile(r"\bstd\s*::\s*vector\s*<\s*std\s*::\s*uint8_t\s*>")
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(lines, idx, "byte-truth-mask"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "byte-truth-mask",
                    "std::vector<std::uint8_t> truth mask outside la/ — state "
                    "sets are packed la::BitVector (la/bit_vector.hpp); "
                    "convert at the boundary with fromBytes/toBytes, or add "
                    "lint:allow(byte-truth-mask: <why this is not a truth "
                    "mask>)",
                )
            )
    return out


def check_raw_wallclock(path: str, lines: list[str]) -> list[Violation]:
    """Flag raw wall-clock use in src/ outside src/util/ + src/obs/.

    obs::Span / the metrics registry are the sanctioned timing paths for
    library code; they keep every clock read behind the diagnostics-only
    boundary. benches and tests time whatever they like — the rule only
    applies to src/ paths.
    """
    posix = _posix(path)
    if not re.search(r"(^|/)src/", posix):
        return []
    if re.search(r"(^|/)src/(util|obs)/", posix):
        return []
    pattern = re.compile(
        r"\bstd\s*::\s*chrono\s*::\s*"
        r"(?:steady_clock|high_resolution_clock|system_clock)\b"
        r"|\butil\s*::\s*Stopwatch\b"
    )
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(lines, idx, "raw-wallclock"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "raw-wallclock",
                    "raw wall-clock read outside src/util/ + src/obs/ — time "
                    "phases with obs::Span (or an obs:: histogram) so clock "
                    "reads stay diagnostics-only and cannot leak into "
                    "exported values or ordering",
                )
            )
    return out


_CLASS_RE = re.compile(r"\b(class|struct)\s+(?:MIMOSTAT_\w+(?:\([^)]*\))?\s+)?"
                       r"([A-Za-z_]\w*)[^;{]*\{")
_MUTEX_MEMBER_RE = re.compile(
    r"\b(?:util\s*::\s*Mutex|std\s*::\s*(?:recursive_|shared_|timed_)?mutex)\b"
    r"[^;(){}]*\b([A-Za-z_]\w*_)\s*;"
)
_MEMBER_RE = re.compile(r"\b([A-Za-z_]\w*_)\s*(?:;|=[^=][^;]*;|\{[^;]*\}\s*;)")
_EXEMPT_TYPE_RE = re.compile(
    r"\b(?:util\s*::\s*Mutex|util\s*::\s*CondVar|std\s*::\s*(?:recursive_|"
    r"shared_|timed_)?mutex|std\s*::\s*condition_variable(?:_any)?)\b"
)


def _class_regions(code: list[str]):
    """Yield (name, [(line_idx, depth1_text), ...]) for each class/struct body.

    Tracks braces to attribute lines to the innermost class and only report
    member declarations at class-body depth (not inside member functions).
    Heuristic, but unit-tested against the shapes this codebase uses.
    """
    stack = []  # (name_or_None, depth_at_entry)
    depth = 0
    bodies: dict[int, tuple[str, list]] = {}
    order: list[int] = []
    for idx, text in enumerate(code):
        pos = 0
        while pos < len(text):
            match = _CLASS_RE.search(text, pos)
            brace_at = text.find("{", pos)
            close_at = text.find("}", pos)
            events = [
                e
                for e in (
                    (match.start(), "class", match) if match else None,
                    (brace_at, "open", None) if brace_at != -1 else None,
                    (close_at, "close", None) if close_at != -1 else None,
                )
                if e is not None
            ]
            if not events:
                break
            events.sort(key=lambda e: e[0])
            at, kind, m = events[0]
            if kind == "class":
                depth += 1
                key = len(order)
                bodies[key] = (m.group(2), [])
                order.append(key)
                stack.append((key, depth))
                pos = m.end()
            elif kind == "open":
                depth += 1
                pos = at + 1
            else:
                if stack and stack[-1][1] == depth:
                    stack.pop()
                depth -= 1
                pos = at + 1
        if stack:
            key, class_depth = stack[-1]
            if depth == class_depth:
                bodies[key][1].append((idx, text))
    for key in order:
        yield bodies[key]


def check_guarded_by(path: str, lines: list[str]) -> list[Violation]:
    code = [_strip_comments_and_strings(l) for l in lines]
    out: list[Violation] = []
    for name, body in _class_regions(code):
        mutexes = set()
        for _, text in body:
            for match in _MUTEX_MEMBER_RE.finditer(text):
                mutexes.add(match.group(1))
        if not mutexes:
            continue
        for idx, text in body:
            # `return *member_;` in an inline accessor is not a declaration.
            if re.search(r"\breturn\b", text):
                continue
            match = _MEMBER_RE.search(text)
            if not match:
                continue
            member = match.group(1)
            if member in mutexes:
                continue
            if _EXEMPT_TYPE_RE.search(text):
                continue
            window = " ".join(t for i, t in body if idx - 1 <= i <= idx)
            if "MIMOSTAT_GUARDED_BY" in window or "MIMOSTAT_PT_GUARDED_BY" in window:
                continue
            if re.search(r"\bstatic\b|\bconstexpr\b|\bconst\s", text):
                continue
            if _allowed(lines, idx, "guarded-by"):
                continue
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "guarded-by",
                    f"member '{member}' of mutex-owning class '{name}' has no "
                    "MIMOSTAT_GUARDED_BY annotation — say which lock protects "
                    "it, or add lint:allow(guarded-by: <why lock-free is "
                    "safe>)",
                )
            )
    return out


def check_reduction_boundary(path: str, lines: list[str]) -> list[Violation]:
    """Flag quotient block-map access outside the reduction layers.

    src/reduce/ owns the quotient indexing, src/lump/ produces it, and
    src/mc/ consumes it through the checker; nothing else maps between
    quotient and original indexing. A `blockOf` read (or representative-table
    indexing) elsewhere hand-rolls that mapping and can silently return
    quotient-indexed vectors where original indexing is promised.
    tests/ and bench/ verify the mapping itself, so they stay free.
    """
    posix = _posix(path)
    if not re.search(r"(^|/)src/", posix):
        return []
    if re.search(r"(^|/)src/(reduce|lump|mc)/", posix):
        return []
    pattern = re.compile(r"\bblockOf\b|\brepresentative\s*\[")
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(
            lines, idx, "reduction-boundary"
        ):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "reduction-boundary",
                    "quotient block-map access outside src/reduce/ + "
                    "src/lump/ + src/mc/ — keep quotient indexing in the "
                    "reduction layers, or add lint:allow(reduction-boundary: "
                    "<why this is not quotient-index mapping>)",
                )
            )
    return out


def check_simd_intrinsics(path: str, lines: list[str]) -> list[Violation]:
    """Flag raw SIMD intrinsics / vendor intrinsic headers outside src/la/.

    The dispatch layer (src/la/simd*.{hpp,cpp}) is the only sanctioned home
    for vector intrinsics: kernels there are instantiated per target with
    per-TU ISA flags, runtime cpuid gating and bitwise assertions against
    the scalar reference. Intrinsics anywhere else — src/, tests/ and
    bench/ alike — bypass dispatch (so MIMOSTAT_SIMD / Exec::simd forcing
    lies) and the bit-identity tests; tests force paths through
    la::Exec::simd instead of hand-rolling vectors.
    """
    posix = _posix(path)
    if re.search(r"(^|/)src/la/", posix):
        return []
    include_re = re.compile(
        r"#\s*include\s*<(?:[a-z0-9]*mmintrin|x86intrin|x86gprintrin|"
        r"arm_neon|arm_sve|arm_acle)\.h>"
    )
    intrinsic_re = re.compile(
        r"\b_mm\d*_\w+\s*\(|\b__m(?:64|128|256|512)[di]?\b"
        r"|\bfloat(?:16|32|64)x\d+(?:x\d+)?_t\b"
        r"|\bv(?:ld[1-4]|st[1-4]|dup|mov|mul|add|sub|fma|mla|mls|abs|neg|"
        r"max|min|get|set|combine|ext|zip|uzp|trn|rev|cvt|reinterpret)"
        r"[a-z0-9_]*_[fsup](?:8|16|32|64)\b"
    )
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if (include_re.search(stripped) or intrinsic_re.search(stripped)) \
                and not _allowed(lines, idx, "simd-intrinsics"):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "simd-intrinsics",
                    "raw SIMD intrinsics outside src/la/ — vector code "
                    "belongs behind the la:: dispatch layer "
                    "(src/la/simd*.cpp: per-target ISA flags, cpuid gating, "
                    "bitwise tests vs the scalar reference); force a path "
                    "with la::Exec::simd / MIMOSTAT_SIMD instead, or add "
                    "lint:allow(simd-intrinsics: <why dispatch cannot "
                    "serve this>)",
                )
            )
    return out


def check_transient_step(path: str, lines: list[str]) -> list[Violation]:
    """Flag left (forward-propagation) products outside the sweep primitive.

    mc::TransientSweep::advance is the one place a distribution steps
    forward, so every transient answer shares its stationary stop and its
    bitwise oracles. A left product is spelled `Side::kLeft` at the one
    entry point la::spmm, so the token marks every call site. src/la/
    defines the kernel (and power iteration's left product); tests/ and
    bench/ run raw loops as independent oracles, so the rule only applies
    to the rest of src/.
    """
    posix = _posix(path)
    if not re.search(r"(^|/)src/", posix):
        return []
    if re.search(r"(^|/)src/la/", posix):
        return []
    pattern = re.compile(r"\bSide\s*::\s*kLeft\b")
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(
            lines, idx, "transient-step"
        ):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "transient-step",
                    "forward-propagation step outside "
                    "mc::TransientSweep::advance — step distributions with "
                    "TransientSweep so the exact stationary stop and its "
                    "oracle tests cover the loop, or add "
                    "lint:allow(transient-step: <why this is not a "
                    "transient sweep>)",
                )
            )
    return out


def check_hidden_thread_state(path: str, lines: list[str]) -> list[Violation]:
    """Flag `thread_local` in src/ outside src/obs/.

    obs:: owns the only per-thread state (the current span, the metric
    shard); everything else takes its scratch from the caller. tests/ and
    bench/ are not scoped.
    """
    posix = _posix(path)
    if not re.search(r"(^|/)src/", posix):
        return []
    if re.search(r"(^|/)src/obs/", posix):
        return []
    pattern = re.compile(r"\bthread_local\b")
    out = []
    for idx, line in enumerate(lines):
        stripped = _strip_comments_and_strings(line)
        if pattern.search(stripped) and not _allowed(
            lines, idx, "hidden-thread-state"
        ):
            out.append(
                Violation(
                    path,
                    idx + 1,
                    "hidden-thread-state",
                    "thread_local outside src/obs/ — take per-call scratch "
                    "from the caller (a model edits the scratch State its "
                    "dtmc::Successors sink lends), so results never depend "
                    "on which thread ran the call",
                )
            )
    return out


RULES = {
    "unordered-iteration": check_unordered_iteration,
    "raw-rng": check_raw_rng,
    "raw-thread": check_raw_thread,
    "atomic-float": check_atomic_float,
    "byte-truth-mask": check_byte_truth_mask,
    "guarded-by": check_guarded_by,
    "raw-wallclock": check_raw_wallclock,
    "reduction-boundary": check_reduction_boundary,
    "simd-intrinsics": check_simd_intrinsics,
    "transient-step": check_transient_step,
    "hidden-thread-state": check_hidden_thread_state,
}


def check_source(text: str, path: str) -> list[Violation]:
    """Run every rule over one translation unit's text (the unit-test API)."""
    lines = text.splitlines()
    violations: list[Violation] = []
    for rule in RULES.values():
        violations.extend(rule(path, lines))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def iter_files(root: str, paths: list[str]) -> list[str]:
    files: list[str] = []
    targets = paths if paths else [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS]
    for target in targets:
        if os.path.isfile(target):
            files.append(target)
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = [d for d in dirnames if d not in ("build", ".git")]
            for fname in sorted(filenames):
                if fname.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, fname))
    return sorted(set(files))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files/dirs to scan "
                        "(default: src tools tests bench examples under --root)")
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_name in RULES:
            print(rule_name)
        return 0

    all_violations: list[Violation] = []
    files = iter_files(args.root, args.paths)
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
        except OSError as err:
            print(f"check_invariants: cannot read {path}: {err}",
                  file=sys.stderr)
            return 2
        rel = os.path.relpath(path, args.root)
        all_violations.extend(check_source(text, rel))

    if all_violations:
        for violation in all_violations:
            print(violation)
        print(
            f"\ncheck_invariants: {len(all_violations)} violation(s) in "
            f"{len(files)} file(s); suppress a deliberate use with "
            "// lint:allow(<rule>: <reason>)"
        )
        return 1
    print(f"check_invariants: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
