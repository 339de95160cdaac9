#!/usr/bin/env python3
"""Cascade-invariant linter: AST-free enforcement of project contracts.

check.sh used to grep for a couple of these ad hoc; this tool is the
single machine-checked home for every textual invariant the codebase
documents (DESIGN.md "Static analysis & concurrency contracts"). Run
with no arguments from anywhere inside the repo; exits non-zero and
prints ``file:line: [rule-id] message`` per violation.

Rules
-----
determinism-clock
    ``rand()``/``srand()``/``time()``/``std::chrono::*_clock::now()``
    are forbidden in ``src/tensor/kernels.cc`` and ``src/core/``:
    those TUs carry the bit-determinism contract (DESIGN.md §9) and a
    wall-clock or libc-RNG read is exactly how nondeterminism sneaks
    in. Seeded draws go through ``util/rng.hh``; timing belongs to
    the obs layer.

hot-path-iostream
    ``<iostream>``/``std::cout``/``std::cerr`` are forbidden in
    hot-path TUs (``src/tensor/``, ``src/core/``,
    ``src/util/parallel.*``): iostream constructs static init order
    dependencies and locale-sensitive formatting into the inner loop.
    Diagnostics use CASCADE_LOG (stderr via cstdio) instead.

metric-name
    String literals passed to ``counter(`` / ``gauge(`` /
    ``histogram(`` in ``src/ tools/ bench/`` must follow the
    ``component.metric`` convention: lowercase dotted path
    (``^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$``), so dashboards can
    group by the prefix. Dynamic names built by concatenation are
    checked fragment-wise (each literal fragment must stay inside the
    ``[a-z0-9_.]`` charset). tests/ are exempt: registry mechanics
    tests deliberately use degenerate names.

raw-mutex
    ``std::mutex`` / ``std::lock_guard`` / ``std::unique_lock`` /
    plain ``std::condition_variable`` are forbidden in ``src/``
    outside ``util/thread_annotations.hh``: locks must be visible to
    ``-Wthread-safety``, which means AnnotatedMutex + LockGuard /
    UniqueLock (``std::condition_variable_any`` pairs with them). A
    deliberate exception carries ``cascade-lint: allow(raw-mutex)``
    on the same line.

unguarded-mutex
    A file that declares an ``AnnotatedMutex`` must either carry at
    least one ``CASCADE_GUARDED_BY``/``CASCADE_PT_GUARDED_BY``/
    ``CASCADE_REQUIRES`` annotation or justify each declaration with
    an inline comment (function-local mutexes guarding locals cannot
    be annotated — Clang only analyzes members and globals). A mutex
    that guards nothing it can name is either dead or undocumented.

tsan-supp-justified
    Every suppression entry in ``tools/tsan.supp`` must be directly
    preceded by a ``#`` justification comment — an unexplained
    suppression hides a real race forever.

cv-wait-predicate
    A single-argument ``cv.wait(lock)`` call (any condition variable)
    must sit inside a ``while``/``for`` loop re-checking its
    predicate, or use the predicate overload. A naked wait is the
    lost-wakeup/spurious-wakeup bug: the thread resumes with the
    condition still false and proceeds anyway. Checked in ``src/
    tools/ bench/ tests/``; the enclosing-loop check walks out
    through up to three brace levels, so a wait guarded by a loop a
    few statements up still passes. A deliberate naked wait carries
    ``cascade-lint: allow(cv-wait)`` on the same line. (The project
    convention is the explicit-loop form — the lambda-predicate
    overload defeats Clang's thread-safety analysis through the
    capture; see util/thread_annotations.hh.)

raw-process
    ``fork``/``vfork``/``exec*``/``kill``/``raise`` are forbidden in
    ``src/ tools/ bench/`` outside the sanctioned worker-runtime and
    chaos-tool zones (``src/train/shard.*``, ``tools/chaos_kill``,
    ``tools/chaos_worker_kill``): process control scattered through
    the codebase is how orphaned children, unreaped zombies and
    accidental self-kills happen. Route process lifecycle through the
    WorkerGroup runtime; a deliberate exception carries
    ``cascade-lint: allow(raw-process)`` on the same line.

unchecked-io
    Statement-position (return value discarded) calls to the raw
    durability primitives — ``::write``/``::close``/``::fsync``/
    ``::fdatasync``/``::rename``/``std::rename``/``std::fclose``/
    ``std::fwrite`` — are forbidden in ``src/ tools/ bench/`` outside
    ``src/util/binio.*``: an unchecked return is exactly the silent
    partial-write bug the checkpoint layer once shipped. Use the
    checked helpers in ``util/binio.hh`` (``writeFileAtomic``,
    ``renameFile``, ``touchFile``, ``removeFileIfExists``) or check
    the return; a deliberate discard carries
    ``cascade-lint: allow(unchecked-io)`` on the same line.

unordered-iteration
    Iteration (range-for or ``.begin()``) over a variable the same
    file declares as ``std::unordered_map``/``std::unordered_set`` is
    forbidden in ``src/``: hash-bucket order is unspecified, varies
    across standard libraries and insertion histories, and is exactly
    how a trajectory stops being bit-identical. Lookups and
    membership tests are fine — only iteration leaks the order.
    Iterate a sorted copy, restructure, or waive in place with
    ``CASCADE_NONDET_OK("order-insensitivity argument")``
    (util/determinism.hh) on the same line or the line above; the
    escape comment ``cascade-lint: allow(unordered-iteration)`` also
    works. This is the seconds-fast same-file rule; the cross-file,
    call-graph-aware version is ``tools/detcheck.py`` (the scan
    lane), which also checks reachability from CASCADE_TRAJECTORY
    roots.

Self-test: ``lint_cascade.py --self-test`` runs each rule against a
synthetic violating file and exits non-zero unless every rule fires
(and does not fire on a clean counterpart).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, List, NamedTuple


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------

CXX_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# Strip // and /* */ comments and string/char literals so rules fire
# on code, not on prose about the thing they forbid. Order matters:
# string contents go first so a quoted "//" does not eat the line.
_COMMENT_OR_STRING = re.compile(
    r'"(?:[^"\\]|\\.)*"'
    r"|'(?:[^'\\]|\\.)*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/",
    re.DOTALL,
)


def strip_comments_and_strings(text: str) -> str:
    """Replace comments/strings with spaces, preserving line numbers."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return _COMMENT_OR_STRING.sub(blank, text)


def iter_repo_files(root: str, subdirs: List[str]) -> List[str]:
    out: List[str] = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


# --------------------------------------------------------------------
# Rules. Each takes (root) and returns a list of Violations.
# --------------------------------------------------------------------

_CLOCK_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|time)\s*\("
    r"|(?:system|steady|high_resolution)_clock::now"
)


def rule_determinism_clock(root: str) -> List[Violation]:
    targets = [
        p
        for p in iter_repo_files(root, ["src/core"])
        + [os.path.join(root, "src/tensor/kernels.cc")]
        if os.path.isfile(p)
    ]
    out = []
    for path in targets:
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for i, line in enumerate(code.splitlines(), 1):
            if _CLOCK_RE.search(line):
                out.append(
                    Violation(
                        rel(root, path),
                        i,
                        "determinism-clock",
                        "wall-clock/libc-RNG call in a "
                        "bit-determinism TU; use util/rng.hh or move "
                        "timing to the obs layer",
                    )
                )
    return out


_IOSTREAM_RE = re.compile(
    r"#\s*include\s*<iostream>|\bstd::(?:cout|cerr|clog)\b"
)


def rule_hot_path_iostream(root: str) -> List[Violation]:
    targets = iter_repo_files(root, ["src/tensor", "src/core"]) + [
        os.path.join(root, "src/util/parallel.hh"),
        os.path.join(root, "src/util/parallel.cc"),
    ]
    out = []
    for path in targets:
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for i, line in enumerate(code.splitlines(), 1):
            if _IOSTREAM_RE.search(line):
                out.append(
                    Violation(
                        rel(root, path),
                        i,
                        "hot-path-iostream",
                        "iostream in a hot-path TU; use CASCADE_LOG "
                        "(util/logging.hh)",
                    )
                )
    return out


_METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"((?:[^\"\\]|\\.)*)\""
)
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_METRIC_FRAGMENT_RE = re.compile(r"^[a-z0-9_.]+$")


def rule_metric_name(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src", "tools", "bench"]):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for i, line in enumerate(text.splitlines(), 1):
            for m in _METRIC_CALL_RE.finditer(line):
                name = m.group(1)
                # A literal followed by concatenation is a fragment of
                # a dynamic name: only the charset is checkable.
                tail = line[m.end():].lstrip()
                is_fragment = tail.startswith("+") or "+" in line[
                    : m.start()
                ].rsplit("(", 1)[-1]
                pattern = (
                    _METRIC_FRAGMENT_RE if is_fragment else _METRIC_NAME_RE
                )
                if not pattern.match(name):
                    out.append(
                        Violation(
                            rel(root, path),
                            i,
                            "metric-name",
                            f'metric name "{name}" violates the '
                            "component.metric convention "
                            "(lowercase dotted path)",
                        )
                    )
    return out


_RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable)\b(?!_any)"
)
_ALLOW_RAW_MUTEX = "cascade-lint: allow(raw-mutex)"


def rule_raw_mutex(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src"]):
        if path.endswith("thread_annotations.hh"):
            continue
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        code_lines = strip_comments_and_strings(
            "\n".join(raw_lines)
        ).splitlines()
        for i, (code, raw) in enumerate(zip(code_lines, raw_lines), 1):
            if _RAW_MUTEX_RE.search(code) and _ALLOW_RAW_MUTEX not in raw:
                out.append(
                    Violation(
                        rel(root, path),
                        i,
                        "raw-mutex",
                        "raw std synchronization primitive invisible "
                        "to -Wthread-safety; use AnnotatedMutex/"
                        "LockGuard/UniqueLock "
                        "(util/thread_annotations.hh) or justify "
                        f"with '{_ALLOW_RAW_MUTEX}'",
                    )
                )
    return out


_ANNOTATED_DECL_RE = re.compile(r"\bAnnotatedMutex\s+[A-Za-z_]\w*\s*;")
_GUARD_ANNOTATION_RE = re.compile(
    r"\bCASCADE_(?:PT_)?GUARDED_BY\s*\(|\bCASCADE_REQUIRES\s*\("
)


def rule_unguarded_mutex(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src"]):
        if path.endswith("thread_annotations.hh"):
            continue
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        text = "\n".join(raw_lines)
        if not _ANNOTATED_DECL_RE.search(
            strip_comments_and_strings(text)
        ):
            continue
        if _GUARD_ANNOTATION_RE.search(text):
            continue
        # No annotation anywhere: each declaration must justify itself
        # with an inline comment (function-local mutexes cannot be
        # named by GUARDED_BY).
        code_lines = strip_comments_and_strings(text).splitlines()
        for i, (code, raw) in enumerate(zip(code_lines, raw_lines), 1):
            if _ANNOTATED_DECL_RE.search(code) and "//" not in raw:
                out.append(
                    Violation(
                        rel(root, path),
                        i,
                        "unguarded-mutex",
                        "AnnotatedMutex with no CASCADE_GUARDED_BY/"
                        "CASCADE_REQUIRES in the file and no inline "
                        "justification comment — a lock that guards "
                        "nothing it can name is dead or undocumented",
                    )
                )
    return out


def rule_tsan_supp_justified(root: str) -> List[Violation]:
    path = os.path.join(root, "tools", "tsan.supp")
    if not os.path.isfile(path):
        return []
    out = []
    prev_comment = False
    with open(path, encoding="utf-8") as f:
        for i, raw in enumerate(f.read().splitlines(), 1):
            line = raw.strip()
            if not line:
                prev_comment = False
                continue
            if line.startswith("#"):
                prev_comment = True
                continue
            if not prev_comment:
                out.append(
                    Violation(
                        rel(root, path),
                        i,
                        "tsan-supp-justified",
                        "suppression entry without a justification "
                        "comment directly above it",
                    )
                )
            # Consecutive entries each need their own comment.
            prev_comment = False
    return out


# Single-identifier-argument wait: `cv.wait(lock)`. The zero-argument
# future/pool `wait()` and the two-argument predicate overload
# `wait(lock, pred)` deliberately do not match.
_CV_WAIT_RE = re.compile(r"\.\s*wait\s*\(\s*[A-Za-z_]\w*\s*\)")
_ALLOW_CV_WAIT = "cascade-lint: allow(cv-wait)"
# A loop construct ending right where a block opens: `while (...) {`,
# `for (...) {` (one paren-nesting level) or `do {`.
_LOOP_BEFORE_BRACE_RE = re.compile(
    r"\b(?:while|for)\s*\((?:[^()]|\([^()]*\))*\)\s*$|\bdo\s*$"
)


def _wait_inside_loop(code: str, pos: int) -> bool:
    """True when the wait at `pos` is lexically inside a loop.

    Two accepted shapes: the loop header on the same statement
    (`while (!p) cv.wait(l);`), or the wait inside a brace block —
    walking outward through up to three enclosing blocks — whose
    opener is a `while`/`for`/`do`.
    """
    stmt_start = max(
        code.rfind(";", 0, pos),
        code.rfind("{", 0, pos),
        code.rfind("}", 0, pos),
    )
    if re.search(r"\b(?:while|for)\b", code[stmt_start + 1 : pos]):
        return True
    depth = 0
    levels = 0
    i = pos
    while i > 0 and levels < 3:
        i -= 1
        c = code[i]
        if c == "}":
            depth += 1
        elif c == "{":
            if depth:
                depth -= 1
                continue
            if _LOOP_BEFORE_BRACE_RE.search(code[max(0, i - 300) : i]):
                return True
            levels += 1
    return False


def rule_cv_wait_predicate(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src", "tools", "bench", "tests"]):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        for m in _CV_WAIT_RE.finditer(code):
            line_no = code.count("\n", 0, m.start()) + 1
            if _ALLOW_CV_WAIT in raw_lines[line_no - 1]:
                continue
            if _wait_inside_loop(code, m.start()):
                continue
            out.append(
                Violation(
                    rel(root, path),
                    line_no,
                    "cv-wait-predicate",
                    "condition-variable wait without an enclosing "
                    "predicate loop — spurious/lost wakeups resume "
                    "with the condition still false; wrap in "
                    "`while (!pred) cv.wait(lock);` or justify with "
                    f"'{_ALLOW_CV_WAIT}'",
                )
            )
    return out


# Process-control primitives: confined to the worker runtime and the
# chaos tools so every fork has exactly one reaper and every kill an
# audited target.
_RAW_PROCESS_RE = re.compile(
    r"\b(?:::)?(?:fork|vfork|execv|execvp|execve|execl|execlp"
    r"|kill|raise)\s*\("
)
_ALLOW_RAW_PROCESS = "cascade-lint: allow(raw-process)"
_RAW_PROCESS_EXEMPT = (
    "src/train/shard.",
    "tools/chaos_kill",
    "tools/chaos_worker_kill",
)


def rule_raw_process(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src", "tools", "bench"]):
        relpath = rel(root, path)
        if any(relpath.startswith(e) for e in _RAW_PROCESS_EXEMPT):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        for m in _RAW_PROCESS_RE.finditer(code):
            line_no = code.count("\n", 0, m.start()) + 1
            if _ALLOW_RAW_PROCESS in raw_lines[line_no - 1]:
                continue
            out.append(
                Violation(
                    relpath,
                    line_no,
                    "raw-process",
                    "raw process-control call outside the worker "
                    "runtime / chaos-tool zones; route through "
                    "train/shard.hh or justify with "
                    f"'{_ALLOW_RAW_PROCESS}'",
                )
            )
    return out


# Raw durability primitives whose return value must be consumed. The
# optional (void) prefix is matched so an explicit discard is still a
# violation: silence needs the allow-comment, not a cast.
_UNCHECKED_IO_RE = re.compile(
    r"(?:\(\s*void\s*\)\s*)?"
    r"(?:::(?:write|close|fsync|fdatasync|rename)"
    r"|std::(?:rename|fclose|fwrite))\s*\("
)
_ALLOW_UNCHECKED_IO = "cascade-lint: allow(unchecked-io)"
_UNCHECKED_IO_EXEMPT = ("src/util/binio.",)


def rule_unchecked_io(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src", "tools", "bench"]):
        relpath = rel(root, path)
        if any(relpath.startswith(e) for e in _UNCHECKED_IO_EXEMPT):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        for m in _UNCHECKED_IO_RE.finditer(code):
            # Statement position = the call (or its (void) cast) is
            # the first token of a statement: preceded by ';', '{',
            # '}' or nothing. Anything else (=, if(, return, ==, ...)
            # consumes the result.
            before = code[: m.start()].rstrip()
            if before and before[-1] not in ";{}":
                continue
            line_no = code.count("\n", 0, m.start()) + 1
            if _ALLOW_UNCHECKED_IO in raw_lines[line_no - 1]:
                continue
            out.append(
                Violation(
                    relpath,
                    line_no,
                    "unchecked-io",
                    "raw I/O primitive with the return value "
                    "discarded — the silent-partial-write bug class; "
                    "use the checked util/binio.hh helpers, check "
                    "the return, or justify with "
                    f"'{_ALLOW_UNCHECKED_IO}'",
                )
            )
    return out


# Unordered-container declarations and iteration over them. The lazy
# body match backtracks across nested template arguments
# (`unordered_map<K, std::vector<V>>`) until the variable name parses.
_UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"[&*]?\s*([A-Za-z_]\w*)\s*[;={]"
)
_ALLOW_UNORDERED_ITER = "cascade-lint: allow(unordered-iteration)"
_NONDET_WAIVER = "CASCADE_NONDET_OK"


def rule_unordered_iteration(root: str) -> List[Violation]:
    out = []
    for path in iter_repo_files(root, ["src"]):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        names = set(_UNORDERED_DECL_RE.findall(code))
        if not names:
            continue
        alt = "|".join(sorted(re.escape(n) for n in names))
        iter_re = re.compile(
            r"for\s*\([^;()]*?:\s*(?:[\w.\->]*?[.>])?(" + alt + r")\s*\)"
            r"|\b(" + alt + r")\s*\.\s*c?r?begin\s*\("
        )
        for m in iter_re.finditer(code):
            line_no = code.count("\n", 0, m.start()) + 1
            context = raw_lines[max(0, line_no - 2) : line_no]
            if any(
                _ALLOW_UNORDERED_ITER in ln or _NONDET_WAIVER in ln
                for ln in context
            ):
                continue
            var = m.group(1) or m.group(2)
            out.append(
                Violation(
                    rel(root, path),
                    line_no,
                    "unordered-iteration",
                    f"iteration over unordered container '{var}' — "
                    "hash-bucket order is unspecified and breaks "
                    "bit-identical trajectories; iterate a sorted "
                    "copy, or waive with CASCADE_NONDET_OK(reason) / "
                    f"'{_ALLOW_UNORDERED_ITER}'",
                )
            )
    return out


RULES: List[tuple[str, Callable[[str], List[Violation]]]] = [
    ("determinism-clock", rule_determinism_clock),
    ("hot-path-iostream", rule_hot_path_iostream),
    ("metric-name", rule_metric_name),
    ("raw-mutex", rule_raw_mutex),
    ("unguarded-mutex", rule_unguarded_mutex),
    ("tsan-supp-justified", rule_tsan_supp_justified),
    ("cv-wait-predicate", rule_cv_wait_predicate),
    ("raw-process", rule_raw_process),
    ("unchecked-io", rule_unchecked_io),
    ("unordered-iteration", rule_unordered_iteration),
]


# --------------------------------------------------------------------
# Self-test: every rule must fire on a synthetic violation and stay
# quiet on a clean counterpart. Guards the linter itself against
# regex rot.
# --------------------------------------------------------------------

_SELF_TEST_CASES = {
    # rule: (relative path, violating content, clean content)
    "determinism-clock": (
        "src/core/victim.cc",
        "int f() { return rand(); }\n",
        "int f() { return 4; }\n",
    ),
    "hot-path-iostream": (
        "src/tensor/victim.cc",
        "#include <iostream>\nvoid f() { std::cout << 1; }\n",
        "void f() {}\n",
    ),
    "metric-name": (
        "src/obs/victim.cc",
        'void f(R &r) { r.counter("BadName").add(1); }\n',
        'void f(R &r) { r.counter("good.name").add(1); }\n',
    ),
    "raw-mutex": (
        "src/util/victim.cc",
        "#include <mutex>\nstd::mutex m;\n",
        "#include <mutex> // cascade-lint: allow(raw-mutex) ok\n",
    ),
    "unguarded-mutex": (
        "src/util/victim2.cc",
        "AnnotatedMutex lonely_;\n",
        "AnnotatedMutex lonely_; // guards the frob cache (local)\n",
    ),
    "tsan-supp-justified": (
        "tools/tsan.supp",
        "race:cascade::Unexplained\n",
        "# justified: false positive, see PR 5\nrace:cascade::Ok\n",
    ),
    "cv-wait-predicate": (
        "src/util/victim3.cc",
        "void f() { UniqueLock l(m_); cv_.wait(l); }\n",
        "void f() { UniqueLock l(m_); "
        "while (!ready_) cv_.wait(l); }\n",
    ),
    "raw-process": (
        "src/util/victim4.cc",
        "void f() { ::kill(pid, 9); }\n",
        "void f() { group.shutdown(); }\n",
    ),
    "unchecked-io": (
        "src/train/victim.cc",
        "void f() { std::rename(a, b); }\n",
        "void f() { if (std::rename(a, b) != 0) die(); }\n",
    ),
    "unordered-iteration": (
        "src/tgnn/victim.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, float> table_;\n"
        "float f() {\n"
        "    float s = 0;\n"
        "    for (const auto &kv : table_) s += kv.second;\n"
        "    return s;\n"
        "}\n",
        "#include <unordered_map>\n"
        "std::unordered_map<int, float> table_;\n"
        "float f() {\n"
        "    float s = 0;\n"
        "    CASCADE_NONDET_OK(\"sorted before any fold\")\n"
        "    for (const auto &kv : table_) s += kv.second;\n"
        "    return s + table_.count(3);\n"
        "}\n",
    ),
}


def self_test() -> int:
    import shutil
    import tempfile

    failures = []
    for rule_name, fn in RULES:
        case = _SELF_TEST_CASES.get(rule_name)
        if case is None:
            failures.append(f"{rule_name}: no self-test case")
            continue
        relpath, bad, good = case
        for content, expect_fire in ((bad, True), (good, False)):
            tmp = tempfile.mkdtemp(prefix="lint_cascade_selftest_")
            try:
                target = os.path.join(tmp, relpath)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                with open(target, "w", encoding="utf-8") as f:
                    f.write(content)
                fired = [v for v in fn(tmp) if v.rule == rule_name]
                if expect_fire and not fired:
                    failures.append(
                        f"{rule_name}: did not fire on violation"
                    )
                if not expect_fire and fired:
                    failures.append(
                        f"{rule_name}: false positive on clean input: "
                        f"{fired[0]}"
                    )
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(RULES)} rules fire and stay quiet")
    return 0


def find_repo_root(start: str) -> str:
    d = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(d, ".git")) or os.path.isfile(
            os.path.join(d, "CMakePresets.json")
        ):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start)
        d = parent


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=None,
        help="repo root (default: discovered from this script/cwd)",
    )
    ap.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only the named rule(s); repeatable",
    )
    ap.add_argument(
        "--list-rules",
        action="store_true",
        help="print rule ids and exit",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="verify every rule fires on a synthetic violation",
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        for name, _ in RULES:
            print(name)
        return 0
    if args.self_test:
        return self_test()

    root = args.root or find_repo_root(
        os.path.dirname(os.path.abspath(__file__))
    )
    selected = (
        [r for r in RULES if r[0] in set(args.rule)]
        if args.rule
        else RULES
    )
    if args.rule and len(selected) != len(set(args.rule)):
        known = {name for name, _ in RULES}
        for r in set(args.rule) - known:
            print(f"unknown rule: {r}", file=sys.stderr)
        return 2

    violations: List[Violation] = []
    for _, fn in selected:
        violations.extend(fn(root))
    violations.sort()
    for v in violations:
        print(v)
    if violations:
        print(
            f"lint_cascade: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
