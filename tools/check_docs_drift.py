#!/usr/bin/env python3
"""Fails when README.md or docs/ARCHITECTURE.md reference files, example
binaries, or bench_micro benchmark names that do not exist in the tree,
or when BENCH_micro.json records an entry whose benchmark no longer
exists.

Checked reference kinds:
  * path-like tokens rooted at src/, tests/, bench/, examples/, tools/,
    docs/, fuzz/, or .github/ (brace groups like foo.{h,cc} are
    expanded, glob stars are resolved with glob);
  * BM_* google-benchmark names, which must appear in bench/*.cc;
  * example_* binary names, which must match an examples/<name>.cpp;
  * Suite.Case test citations (e.g. EngineRobustnessTest.
    CancelMidScanOfMultiThreadedExplain), which must be declared by a
    TEST/TEST_F in tests/ — docs must not cite deleted tests;
  * "name" fields of BENCH_micro.json entries (stripped of /arg
    suffixes), which must be registered benchmarks — the perf history
    must not silently reference deleted timers;
  * `pxlint:<name>` rule citations, which must name rules actually
    registered in tools/pxlint.py's RULES table — docs must not promise
    a lint that no longer runs;
  * tools/pxlint.py's own CHECKPOINT_REGISTRY paths, which must exist in
    the tree — pxlint deliberately skips missing files (so its fixture
    roots work), which makes THIS check the one that catches a rename
    silently retiring a checkpoint obligation;
  * every --gtest_filter pattern in .github/workflows/ci.yml (positive
    and negative, gtest wildcards * and ? included), which must match at
    least one TEST/TEST_F/TEST_P declared in tests/ — a filter naming a
    deleted test matches nothing and gtest exits 0, silently dropping
    the CI step's coverage. A built-in negative self-check feeds the
    matcher a pattern no test can satisfy and fails unless it is flagged;
  * backticked `Class::member` citations (also `namespace::function`;
    `std::` is exempt), whose member must be declared in a file of src/,
    bench/, tools/ or perfbench/src/ that declares the class (or the code
    must spell out `Class::member` itself), outside comments and string
    literals — so docs cannot keep naming a deleted or renamed entry
    point. The same kind of self-check feeds it undeclared members.

Run from the repository root:  python3 tools/check_docs_drift.py
"""

import glob
import itertools
import json
import os
import re
import sys

DOCS = ["README.md", "docs/ARCHITECTURE.md"]
PATH_ROOTS = ("src/", "tests/", "bench/", "examples/", "tools/", "docs/",
              "fuzz/", ".github/")
PATH_RE = re.compile(
    r"(?:src|tests|bench|examples|tools|docs|fuzz|\.github)/"
    r"[A-Za-z0-9_./*{},\-]*[A-Za-z0-9_*}]")
BENCH_RE = re.compile(r"\bBM_[A-Za-z0-9_]+")
EXAMPLE_RE = re.compile(r"\bexample_[a-z0-9_]+")
# Suite.Case citations like `CliTest.ExplainRejectedByAdmissionControl`.
# Suites are conventionally *Test; cite on one line (no wrapping around
# the dot) so the reference is machine-checkable.
TEST_RE = re.compile(r"\b([A-Za-z0-9]+Test)\.([A-Za-z0-9_]+)\b")
# `pxlint:<rule>` citations; the rule must exist in tools/pxlint.py.
PXLINT_CITE_RE = re.compile(r"\bpxlint:([a-z][a-z-]*)")
PXLINT_PY = "tools/pxlint.py"
CI_WORKFLOW = ".github/workflows/ci.yml"
GTEST_FILTER_RE = re.compile(r"--gtest_filter=(['\"]?)([^\s'\"]+)\1")
# `Class::member` inside a backticked span; the last `::` pair counts.
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
SCOPED_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)::([A-Za-z_][A-Za-z0-9_]*)"
                       r"\b(?!::)")
CODE_ROOTS = ("src", "bench", "tools", "perfbench/src")
CODE_EXTENSIONS = (".h", ".cc", ".cpp", ".py")
# Comments and string literals of C++ and Python, blanked before the
# declaration search so a stale mention in prose does not count.
CODE_NOISE_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|#[^\n]*|\"(?:\\.|[^\"\\\n])*\"",
    re.DOTALL)


def pxlint_registry():
    """Parses (rules, checkpoint_paths) out of tools/pxlint.py textually —
    no import, so a syntax error in the linter surfaces as its own test
    failure rather than breaking the drift check."""
    if not os.path.exists(PXLINT_PY):
        return set(), set()
    with open(PXLINT_PY, encoding="utf-8") as f:
        text = f.read()
    rules_block = re.search(r"^RULES\s*=\s*\{(.*?)\}", text,
                            re.MULTILINE | re.DOTALL)
    rules = set(
        re.findall(r'"([a-z-]+)"\s*:\s*rule_', rules_block.group(1))
        if rules_block else [])
    registry_block = re.search(
        r"^CHECKPOINT_REGISTRY\s*=\s*\[(.*?)\]", text,
        re.MULTILINE | re.DOTALL)
    paths = set(
        re.findall(r'\(\s*"([^"]+)"\s*,', registry_block.group(1))
        if registry_block else [])
    return rules, paths


def expand_braces(token):
    """foo.{h,cc} -> [foo.h, foo.cc]; nested braces are not needed."""
    match = re.search(r"\{([^{}]*)\}", token)
    if not match:
        return [token]
    head, tail = token[: match.start()], token[match.end():]
    return list(
        itertools.chain.from_iterable(
            expand_braces(head + alt + tail)
            for alt in match.group(1).split(",")))


def subtokens(token):
    """`src/pxql/lexer,parser` names siblings of one directory; yield each
    as its own path stem."""
    if "," in token and "{" not in token:
        parts = token.split(",")
        base_dir = os.path.dirname(parts[0])
        yield parts[0]
        for part in parts[1:]:
            yield os.path.join(base_dir, part)
    else:
        yield token


def check_path(token):
    """Returns True when the token resolves to at least one real path.
    Extension-less stems (prose like `src/ml/relief`) match any
    `<stem>.*` file."""
    for candidate in expand_braces(token):
        if "*" in candidate:
            if glob.glob(candidate):
                return True
        elif os.path.exists(candidate.rstrip("/")):
            return True
        elif "." not in os.path.basename(candidate):
            if glob.glob(candidate + ".*"):
                return True
    return False


def gtest_pattern_regex(pattern):
    """gtest filter wildcards: `*` is any string, `?` any one character."""
    return re.compile("".join(
        ".*" if c == "*" else "." if c == "?" else re.escape(c)
        for c in pattern) + r"\Z")


def stale_filter_patterns(text, test_names):
    """Every --gtest_filter pattern in `text` that matches none of the
    full test names `test_names`. A filter is `POS:POS-NEG:NEG`; both
    halves are checked."""
    stale = []
    for match in GTEST_FILTER_RE.finditer(text):
        for pattern in re.split(r"[:-]", match.group(2)):
            regex = gtest_pattern_regex(pattern)
            if pattern and not any(regex.match(name) for name in test_names):
                stale.append(pattern)
    return stale


def code_index():
    """(scoped, qualified) over the code under CODE_ROOTS, comments and
    strings blanked. `scoped` maps each class, struct, enum or namespace
    name to the identifiers declared in the files that declare it: a
    function (`name(`), a field, constant or enumerator (`name =`,
    `name;`, `name,`, `name{`, `name[`) or a nested type. Calls match too;
    a call compiles only while its callee is declared. `qualified` holds
    every `Scope::member` the code itself spells out, which covers
    out-of-line definitions and namespace aliases."""
    scoped = {}
    qualified = set()
    for root in CODE_ROOTS:
        for path in glob.glob(os.path.join(root, "**", "*"), recursive=True):
            if not path.endswith(CODE_EXTENSIONS) or "fixtures" in path:
                continue
            with open(path, encoding="utf-8") as f:
                code = CODE_NOISE_RE.sub(" ", f.read())
            types = set(re.findall(
                r"\b(?:class|struct|enum|using|namespace)\s+"
                r"(?:class\s+)?([A-Za-z_][A-Za-z0-9_]*)", code))
            names = types | set(re.findall(
                r"\b([A-Za-z_][A-Za-z0-9_]*)\s*[(=;,{\[]", code))
            for scope in types:
                scoped.setdefault(scope, set()).update(names)
            qualified.update(SCOPED_RE.findall(code))
    return scoped, qualified


def undeclared_members(text, index):
    """`Scope::member` citations in backticked spans of `text` that the
    code neither spells out nor declares in a file declaring `Scope`."""
    scoped, qualified = index
    stale = []
    for span in BACKTICK_RE.findall(text):
        for scope, member in SCOPED_RE.findall(span):
            if (scope != "std" and (scope, member) not in qualified and
                    member not in scoped.get(scope, ())):
                stale.append(f"{scope}::{member}")
    return sorted(set(stale))


def main():
    # Names actually registered with google-benchmark, so a stale doc
    # reference that is a prefix of a surviving name (or only appears in a
    # comment) still fails.
    registered_benches = set()
    for path in glob.glob("bench/*.cc"):
        with open(path, encoding="utf-8") as f:
            registered_benches.update(
                re.findall(r"BENCHMARK\((BM_[A-Za-z0-9_]+)\)", f.read()))

    # (suite, case) pairs declared by TEST/TEST_F anywhere under tests/,
    # and the full names gtest filters match against: Suite.Case, or
    # Prefix/Suite.Case/0 for each instantiation of a TEST_P suite.
    declared_tests = set()
    test_names = set()
    for path in glob.glob("tests/**/*.cc", recursive=True):
        with open(path, encoding="utf-8") as f:
            code = f.read()
        plain = re.findall(r"\bTEST(?:_F)?\(\s*([A-Za-z0-9_]+)\s*,"
                           r"\s*([A-Za-z0-9_]+)\s*\)", code)
        param = re.findall(r"\bTEST_P\(\s*([A-Za-z0-9_]+)\s*,"
                           r"\s*([A-Za-z0-9_]+)\s*\)", code)
        prefixes = re.findall(r"\bINSTANTIATE_TEST_SUITE_P\(\s*"
                              r"([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)",
                              code)
        declared_tests.update(plain)
        test_names.update(f"{suite}.{case}" for suite, case in plain)
        for suite, case in param:
            test_names.update(f"{prefix}/{suite}.{case}/0"
                              for prefix, instantiated in prefixes
                              if instantiated == suite)
    declared_suites = {suite for suite, _ in declared_tests}

    pxlint_rules, checkpoint_paths = pxlint_registry()

    stale = []
    # pxlint's checkpoint registry skips files missing from the linted
    # tree; here every registered path must exist in the real repo.
    for path in sorted(checkpoint_paths):
        if not os.path.exists(path):
            stale.append((PXLINT_PY, f"CHECKPOINT_REGISTRY: {path}"))
    # A filter pattern naming no test must be reported; prove the matcher
    # still catches one before trusting its verdict on the workflow.
    probe = "--gtest_filter='NoSuchSuiteTest.*:EngineTest.NoSuchCase'"
    if stale_filter_patterns(probe, test_names) != [
            "NoSuchSuiteTest.*", "EngineTest.NoSuchCase"]:
        stale.append((__file__, "self-check: a stale --gtest_filter "
                                "pattern was not flagged"))
    index = code_index()
    # A cited member no code declares must be reported — also when another
    # class declares a member of that name — and a live one must pass:
    # prove the scanner on both before trusting it on the docs.
    probe = ("`Engine::NoSuchDriftProbeMember`, `SimButDiff::GenerateClause`"
             " and `Engine::ExplainBatch`")
    if undeclared_members(probe, index) != [
            "Engine::NoSuchDriftProbeMember", "SimButDiff::GenerateClause"]:
        stale.append((__file__, "self-check: a cited Class::member that "
                                "no code declares was not flagged"))
    if os.path.exists(CI_WORKFLOW):
        with open(CI_WORKFLOW, encoding="utf-8") as f:
            for pattern in stale_filter_patterns(f.read(), test_names):
                stale.append((CI_WORKFLOW,
                              f"--gtest_filter pattern {pattern} matches "
                              "no test"))
    for doc in DOCS:
        if not os.path.exists(doc):
            stale.append((doc, "(document itself is missing)"))
            continue
        with open(doc, encoding="utf-8") as f:
            text = f.read()
        for token in sorted(set(PATH_RE.findall(text))):
            for sub in subtokens(token):
                if not check_path(sub):
                    stale.append((doc, sub))
        for name in sorted(set(BENCH_RE.findall(text))):
            # Entries may carry /arg suffixes in prose; the bare name is
            # what must be registered as a benchmark.
            if name.split("/")[0] not in registered_benches:
                stale.append((doc, name))
        for name in sorted(set(EXAMPLE_RE.findall(text))):
            source = "examples/" + name[len("example_"):] + ".cpp"
            if not os.path.exists(source):
                stale.append((doc, name))
        for suite, case in sorted(set(TEST_RE.findall(text))):
            # Only police suites that exist (or existed): a dotted token
            # whose suite is entirely unknown is likely prose or a file
            # stem, but a known suite citing a deleted case is drift.
            if suite in declared_suites and (suite, case) not in declared_tests:
                stale.append((doc, f"{suite}.{case}"))
            elif suite.endswith("Test") and suite not in declared_suites:
                stale.append((doc, f"{suite}.{case} (unknown test suite)"))
        for cited in undeclared_members(text, index):
            stale.append((doc, f"{cited} (member not declared in "
                               f"{', '.join(CODE_ROOTS)})"))
        for rule in sorted(set(PXLINT_CITE_RE.findall(text))):
            if rule not in pxlint_rules:
                stale.append((doc, f"pxlint:{rule} (unknown pxlint rule)"))

    bench_json = "BENCH_micro.json"
    if os.path.exists(bench_json):
        with open(bench_json, encoding="utf-8") as f:
            data = json.load(f)
        for entry in data.get("entries", []):
            name = str(entry.get("name", "")).split("/")[0]
            if name not in registered_benches:
                stale.append((bench_json, entry.get("name", "(unnamed)")))

    if stale:
        print("Stale documentation references (file or name not found):")
        for doc, token in stale:
            print(f"  {doc}: {token}")
        return 1
    print(f"docs drift check OK: {', '.join(DOCS)} + {bench_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
