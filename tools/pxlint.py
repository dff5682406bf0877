#!/usr/bin/env python3
"""pxlint — the PerfXplain repo linter: machine-checks the contracts that
docs/ARCHITECTURE.md promises in prose.

Rules (cite them in docs as `pxlint:<name>`; tools/check_docs_drift.py
validates such citations against this file):

  pxlint:boundary
      Untrusted-input boundaries return Status, never abort: no
      PX_CHECK / abort() / assert() in src/ingest/ or in the PXQL parse
      boundary (lexer, parser, templates). Internal invariant checks
      belong behind the boundary, after inputs are validated.

  pxlint:checkpoint
      Every registered long-loop entry point (the scans, tile fills,
      striped RReliefF, rotation, recovery, WAL replay, checkpoint load)
      contains a ThrowIfInterrupted() cooperative-cancellation
      checkpoint, so a deadline or CancelToken is always observed in
      bounded time.

  pxlint:determinism
      No nondeterminism sources in the hot layers (src/core,
      src/features, src/ml): std::random_device, rand()/srand(),
      time()/clock(), system_clock, and range-for iteration over
      unordered containers (hash order is not a stable order; results
      that feed from it are not reproducible) are all banned. All
      randomness flows through common/random.h's seeded Rng.

  pxlint:reference
      Each technique has one implementation in src/: no file there names
      a retired lazy-Value twin (PairFeatureView, ExplainLegacy,
      ValueReliefView, ComputePairFeature*). The equivalence suites check
      the engine against the naive reference in tests/reference/, which
      stays independent of it: its files include no src/ header but the
      Value and Rng types, the raw log and schema, and the PXQL AST and
      parser.

  pxlint:self-containment
      Every header under src/ compiles on its own (a generated
      one-include TU per header, -fsyntax-only), so include order never
      matters and refactors cannot create hidden include debt. Needs a
      C++ compiler on PATH (g++/c++/clang++ or $CXX); skipped with a
      notice when none exists or --no-compile is given.

A finding line looks like

    src/ingest/csv.cc:42: [boundary] PX_CHECK at an untrusted-input ...

and the process exits 1 when any rule fired, 0 otherwise. Suppress a
single line — with a justifying comment nearby — by appending
`// pxlint: allow(<rule>)`.

Usage:
    tools/pxlint.py                 # lint the repo (run from its root)
    tools/pxlint.py --root DIR      # lint another tree (rule fixtures)
    tools/pxlint.py --rule boundary --rule checkpoint
    tools/pxlint.py --list-rules
"""

import argparse
import concurrent.futures
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

# --------------------------------------------------------------- registries

# Files forming the untrusted-input boundary: everything here parses bytes
# the process does not control, so failures must be Status values.
BOUNDARY_GLOBS = [
    "src/ingest/*.h",
    "src/ingest/*.cc",
    "src/pxql/lexer.*",
    "src/pxql/parser.*",
    "src/pxql/templates.*",
    # Durability code parses on-disk bytes that may be torn or bit-flipped
    # by a crash: corruption must surface as a contextful Status, never a
    # process death.
    "src/storage/*.h",
    "src/storage/*.cc",
]
BOUNDARY_BANNED = [
    (re.compile(r"\bPX_CHECK(?:_[A-Z]+)?\b"),
     "PX_CHECK at an untrusted-input boundary — return a Status instead "
     "(docs/ARCHITECTURE.md, error-handling contract)"),
    (re.compile(r"\bstd::abort\b|\babort\s*\("),
     "abort() at an untrusted-input boundary — return a Status instead"),
    (re.compile(r"\bassert\s*\("),
     "assert() at an untrusted-input boundary — return a Status instead"),
]

# (file, function) entry points that run long loops: each function's body
# (any overload) must contain a ThrowIfInterrupted() checkpoint. A file
# missing from the linted tree is skipped here — check_docs_drift.py
# separately fails when a registry path no longer exists in the repo, so
# a rename cannot silently retire a checkpoint obligation.
#
# Every ordered-pair scan (the counting/collecting/sampling scans, the
# streaming draw pass, the poi search, the metrics scans and SimButDiff on
# every tile source) walks its first rows through ForEachCandidateRow, so
# that one walker carries the per-first-row checkpoint for all of them.
CHECKPOINT_REGISTRY = [
    ("src/core/pair_enumeration.h", "ForEachCandidateRow"),
    ("src/features/tile_pool.cc", "TilePool::Fill"),
    ("src/features/tile_pool.cc", "TilePool::BuildTile"),
    ("src/ml/relief.cc", "RRelieff"),
    ("src/serving/live_engine.cc", "LiveEngine::Rotate"),
    ("src/serving/live_engine.cc", "LiveEngine::Recover"),
    ("src/storage/checkpoint.cc", "SnapshotCheckpoint::LoadLatest"),
    ("src/storage/wal.cc", "WalReader::Replay"),
]
CHECKPOINT_CALL = "ThrowIfInterrupted"

# Layers whose outputs must be reproducible bit-for-bit (the bitwise
# equivalence suites depend on it).
DETERMINISM_DIRS = ["src/core", "src/features", "src/ml", "src/serving"]
DETERMINISM_BANNED = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic — route randomness through "
     "common/random.h's seeded Rng"),
    (re.compile(r"\bs?rand\s*\("),
     "rand()/srand() are nondeterministic and process-global — use the "
     "seeded Rng"),
    (re.compile(r"\btime\s*\(|\bclock\s*\(|\bsystem_clock\b"),
     "wall-clock reads in a hot path make results time-dependent — "
     "steady_clock timing belongs at the Engine boundary only"),
]
DETERMINISM_UNORDERED_DECL = re.compile(
    r"\b(?:std::)?unordered_(?:multi)?(?:map|set)\s*<[^;(]*?>\s+(\w+)\s*[;{=(]")
DETERMINISM_RANGE_FOR = re.compile(r"\bfor\s*\([^;()]*:\s*(\w+)\s*\)")

# The lazy-Value twins the engine once shipped beside its encoded paths,
# and the only src/ headers the independent reference may include.
RETIRED_TWINS = re.compile(
    r"\b(?:PairFeatureView|ExplainLegacy|ValueReliefView|"
    r"ComputePairFeature\w*)\b")
REFERENCE_DIR = "tests/reference"
REFERENCE_INCLUDES = {
    "common/value.h", "common/random.h", "log/schema.h",
    "log/execution_log.h", "pxql/ast.h", "pxql/parser.h", "pxql/query.h",
}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

ALLOW_RE = re.compile(r"pxlint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ------------------------------------------------------------ C++ scanning

def strip_code(text):
    """Returns `text` with comments and string/char literal contents
    blanked (newlines kept, so line numbers survive). Rules scan the
    result: a PX_CHECK in a comment or a "time(" inside a message string
    is not a finding. The original lines still carry the pxlint:allow
    markers, which live in comments."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
            elif c == "'":
                state = "char"
                out.append(c)
            else:
                out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def function_bodies(code, name):
    """Yields the brace-balanced body text of every *definition* of
    `name` (possibly Class::qualified) in comment-stripped `code`.
    Declarations (a `;` before any `{` at paren depth 0) are skipped."""
    for match in re.finditer(re.escape(name) + r"\s*\(", code):
        i = match.end() - 1
        depth = 0
        body_start = None
        while i < len(code):
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and c == ";":
                break  # declaration only
            elif depth == 0 and c == "{":
                body_start = i
                break
            i += 1
        if body_start is None:
            continue
        brace = 0
        j = body_start
        while j < len(code):
            if code[j] == "{":
                brace += 1
            elif code[j] == "}":
                brace -= 1
                if brace == 0:
                    yield code[body_start:j + 1]
                    break
            j += 1


def allowed(raw_lines, lineno, rule):
    """True when the original source line carries a pxlint:allow for
    `rule`."""
    line = raw_lines[lineno - 1] if 0 < lineno <= len(raw_lines) else ""
    match = ALLOW_RE.search(line)
    return bool(match and match.group(1) == rule)


def scan_banned(root, rel_path, banned, rule):
    path = os.path.join(root, rel_path)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    code_lines = strip_code(raw).splitlines()
    findings = []
    for lineno, line in enumerate(code_lines, start=1):
        for pattern, message in banned:
            if pattern.search(line) and not allowed(raw_lines, lineno, rule):
                findings.append(Finding(rel_path, lineno, rule, message))
    return findings


# ------------------------------------------------------------------- rules

def rule_boundary(root, args):
    del args
    findings = []
    for pattern in BOUNDARY_GLOBS:
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            rel = os.path.relpath(path, root)
            findings.extend(scan_banned(root, rel, BOUNDARY_BANNED,
                                        "boundary"))
    return findings


def rule_checkpoint(root, args):
    del args
    findings = []
    for rel, func in CHECKPOINT_REGISTRY:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue  # drift checker owns stale registry paths
        with open(path, encoding="utf-8") as f:
            code = strip_code(f.read())
        bodies = list(function_bodies(code, func))
        if not bodies:
            findings.append(Finding(
                rel, 1, "checkpoint",
                f"registered long-loop entry point {func} not found — "
                "update the pxlint CHECKPOINT_REGISTRY with the rename"))
            continue
        if not any(CHECKPOINT_CALL in body for body in bodies):
            findings.append(Finding(
                rel, 1, "checkpoint",
                f"{func} has no {CHECKPOINT_CALL}() checkpoint: a deadline "
                "or CancelToken could go unobserved for the whole loop"))
    return findings


def rule_determinism(root, args):
    del args
    findings = []
    for subdir in DETERMINISM_DIRS:
        for path in sorted(
                glob.glob(os.path.join(root, subdir, "**", "*.h"),
                          recursive=True) +
                glob.glob(os.path.join(root, subdir, "**", "*.cc"),
                          recursive=True)):
            rel = os.path.relpath(path, root)
            findings.extend(scan_banned(root, rel, DETERMINISM_BANNED,
                                        "determinism"))
            with open(path, encoding="utf-8") as f:
                raw = f.read()
            raw_lines = raw.splitlines()
            code = strip_code(raw)
            unordered = set(DETERMINISM_UNORDERED_DECL.findall(code))
            if not unordered:
                continue
            for lineno, line in enumerate(code.splitlines(), start=1):
                for match in DETERMINISM_RANGE_FOR.finditer(line):
                    if match.group(1) not in unordered:
                        continue
                    if allowed(raw_lines, lineno, "determinism"):
                        continue
                    findings.append(Finding(
                        rel, lineno, "determinism",
                        f"range-for over unordered container "
                        f"'{match.group(1)}': hash order is not a stable "
                        "order — iterate a sorted view or a vector"))
    return findings


def rule_reference(root, args):
    del args
    findings = []
    for path in sorted(
            glob.glob(os.path.join(root, "src", "**", "*.h"), recursive=True) +
            glob.glob(os.path.join(root, "src", "**", "*.cc"),
                      recursive=True)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = RETIRED_TWINS.search(line)
            if match and not allowed(lines, lineno, "reference"):
                findings.append(Finding(
                    rel, lineno, "reference",
                    f"names the retired lazy-Value twin {match.group(0)} — "
                    "the engine has one implementation; the oracle lives "
                    f"in {REFERENCE_DIR}/"))
    for path in sorted(
            glob.glob(os.path.join(root, REFERENCE_DIR, "**", "*.h"),
                      recursive=True) +
            glob.glob(os.path.join(root, REFERENCE_DIR, "**", "*.cc"),
                      recursive=True)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            header = match.group(1)
            if header.startswith("reference/") or \
                    header in REFERENCE_INCLUDES:
                continue
            if not allowed(lines, lineno, "reference"):
                findings.append(Finding(
                    rel, lineno, "reference",
                    f"includes {header}: the reference shares no helper "
                    "with the engine and may include only "
                    + ", ".join(sorted(REFERENCE_INCLUDES))))
    return findings


def find_compiler():
    for candidate in (os.environ.get("PXLINT_CXX"), os.environ.get("CXX"),
                      "g++", "c++", "clang++"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def rule_self_containment(root, args):
    if args.no_compile:
        print("pxlint: self-containment skipped (--no-compile)")
        return []
    compiler = find_compiler()
    if compiler is None:
        print("pxlint: self-containment skipped (no C++ compiler on PATH)")
        return []
    src = os.path.join(root, "src")
    headers = sorted(glob.glob(os.path.join(src, "**", "*.h"),
                               recursive=True))
    findings = []

    def check(header):
        rel = os.path.relpath(header, src)
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cc", delete=False) as tu:
            tu.write(f'#include "{rel}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, "-std=c++17", "-fsyntax-only", "-I", src,
                 tu_path],
                capture_output=True, text=True)
        finally:
            os.unlink(tu_path)
        if proc.returncode != 0:
            first_error = next(
                (line for line in proc.stderr.splitlines()
                 if "error" in line), proc.stderr.strip()[:200])
            return Finding(
                os.path.relpath(header, root), 1, "self-containment",
                f"header does not compile alone: {first_error}")
        return None

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(16, os.cpu_count() or 1)) as pool:
        for result in pool.map(check, headers):
            if result is not None:
                findings.append(result)
    return findings


RULES = {
    "boundary": rule_boundary,
    "checkpoint": rule_checkpoint,
    "determinism": rule_determinism,
    "reference": rule_reference,
    "self-containment": rule_self_containment,
}


def main():
    parser = argparse.ArgumentParser(
        description="PerfXplain repo linter (see module docstring)")
    parser.add_argument("--root", default=".",
                        help="tree to lint (default: cwd; rule fixtures "
                             "pass their own)")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable; default all)")
    parser.add_argument("--no-compile", action="store_true",
                        help="skip the compile-backed self-containment rule")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    selected = args.rule or sorted(RULES)
    findings = []
    for name in selected:
        findings.extend(RULES[name](args.root, args))

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"pxlint: {len(findings)} finding(s) across "
              f"{len(selected)} rule(s)")
        return 1
    print(f"pxlint OK: {', '.join(selected)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
