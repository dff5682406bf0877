#!/usr/bin/env python3
"""Self-tests for tools/pxlint.py: every rule must fire on its seeded-bad
fixture and stay silent on the clean twin, so a regression in the linter
cannot silently disable a machine-checked invariant.

Fixture trees live under tests/tools/pxlint_fixtures/<rule>/{bad,good}/
and mirror the src/ layout pxlint expects. Run directly or via ctest
(`pxlint_test`). Uses only the standard library.
"""

import os
import shutil
import subprocess
import sys
import unittest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
PXLINT = os.path.join(REPO_ROOT, "tools", "pxlint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "tools", "pxlint_fixtures")


def run_pxlint(*argv):
    return subprocess.run(
        [sys.executable, PXLINT, *argv],
        capture_output=True, text=True, cwd=REPO_ROOT)


def fixture(rule_dir, kind):
    root = os.path.join(FIXTURES, rule_dir, kind)
    assert os.path.isdir(root), f"missing fixture tree: {root}"
    return root


def has_compiler():
    for candidate in (os.environ.get("PXLINT_CXX"), os.environ.get("CXX"),
                      "g++", "c++", "clang++"):
        if candidate and shutil.which(candidate):
            return True
    return False


class PxlintCliTest(unittest.TestCase):
    def test_list_rules_names_every_rule(self):
        proc = run_pxlint("--list-rules")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rules = proc.stdout.split()
        self.assertEqual(
            rules,
            ["boundary", "checkpoint", "determinism", "reference",
             "self-containment"])

    def test_unknown_rule_is_rejected(self):
        proc = run_pxlint("--rule", "no-such-rule")
        self.assertNotEqual(proc.returncode, 0)


class BoundaryRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_every_seeded_finding(self):
        proc = run_pxlint("--root", fixture("boundary", "bad"),
                          "--rule", "boundary")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[boundary]", proc.stdout)
        self.assertIn("PX_CHECK", proc.stdout)
        self.assertIn("abort", proc.stdout)
        self.assertIn("assert", proc.stdout)
        # Exactly the three seeded lines: the PX_CHECK inside a comment
        # and the "PX_CHECK(" inside a string literal must not count.
        self.assertEqual(proc.stdout.count("[boundary]"), 3, proc.stdout)
        self.assertIn("bad_boundary.cc:12", proc.stdout)
        self.assertIn("bad_boundary.cc:15", proc.stdout)
        # The durability layer (src/storage) is part of the boundary too:
        # it parses on-disk bytes a crash may have torn or bit-flipped.
        self.assertIn("bad_storage.cc:12", proc.stdout)

    def test_good_fixture_passes_and_honors_allow_marker(self):
        proc = run_pxlint("--root", fixture("boundary", "good"),
                          "--rule", "boundary")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("pxlint OK", proc.stdout)


class CheckpointRuleTest(unittest.TestCase):
    def test_bad_fixture_reports_only_the_unchecked_entry_point(self):
        proc = run_pxlint("--root", fixture("checkpoint", "bad"),
                          "--rule", "checkpoint")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count("[checkpoint]"), 1, proc.stdout)
        self.assertIn("TilePool::Fill has no ThrowIfInterrupted",
                      proc.stdout)

    def test_good_fixture_passes(self):
        proc = run_pxlint("--root", fixture("checkpoint", "good"),
                          "--rule", "checkpoint")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_real_repo_contains_every_registered_checkpoint(self):
        proc = run_pxlint("--root", REPO_ROOT, "--rule", "checkpoint")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class DeterminismRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_all_three_seeded_findings(self):
        proc = run_pxlint("--root", fixture("determinism", "bad"),
                          "--rule", "determinism")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count("[determinism]"), 3, proc.stdout)
        self.assertIn("random_device", proc.stdout)
        self.assertIn("wall-clock", proc.stdout)
        self.assertIn("unordered container 'weights'", proc.stdout)

    def test_good_fixture_passes_and_honors_allow_marker(self):
        proc = run_pxlint("--root", fixture("determinism", "good"),
                          "--rule", "determinism")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class ReferenceRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_on_twins_and_engine_includes(self):
        proc = run_pxlint("--root", fixture("reference", "bad"),
                          "--rule", "reference")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count("[reference]"), 4, proc.stdout)
        self.assertIn("twin.h:2: [reference] names the retired lazy-Value "
                      "twin PairFeatureView", proc.stdout)
        self.assertIn("twin.h:3:", proc.stdout)
        # The reference may include itself and the allowlisted headers,
        # nothing else of src/.
        self.assertIn("oracle.cc:4: [reference] includes "
                      "features/pair_feature_kernel.h", proc.stdout)
        self.assertIn("oracle.cc:5: [reference] includes core/engine.h",
                      proc.stdout)

    def test_good_fixture_passes_and_honors_allow_marker(self):
        proc = run_pxlint("--root", fixture("reference", "good"),
                          "--rule", "reference")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_real_repo_has_one_implementation_and_an_independent_oracle(self):
        proc = run_pxlint("--root", REPO_ROOT, "--rule", "reference")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class SelfContainmentRuleTest(unittest.TestCase):
    @unittest.skipUnless(has_compiler(), "no C++ compiler on PATH")
    def test_bad_fixture_fails_on_hidden_include_debt(self):
        proc = run_pxlint("--root", fixture("self_containment", "bad"),
                          "--rule", "self-containment")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[self-containment]", proc.stdout)
        self.assertIn("not_self_contained.h", proc.stdout)

    @unittest.skipUnless(has_compiler(), "no C++ compiler on PATH")
    def test_good_fixture_passes(self):
        proc = run_pxlint("--root", fixture("self_containment", "good"),
                          "--rule", "self-containment")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_no_compile_flag_skips_with_notice(self):
        proc = run_pxlint("--root", fixture("self_containment", "bad"),
                          "--rule", "self-containment", "--no-compile")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("skipped", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
