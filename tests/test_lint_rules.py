"""Fixture-corpus tests: every rule fires on its bad snippet, stays quiet
on its good one, and the project rules resolve the real registries."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.lint import FileContext, ImportMap, LintRunner, ProjectIndex
from repro.lint.base import ClassInfo, all_rules
from repro.lint.rules_protocol import (
    BatchDetectorProtocolRule,
    StreamDetectorProtocolRule,
)

FIXTURE_DIR = Path(__file__).parent / "lint_fixtures"

#: Synthetic lint paths placing each fixture inside its rule's scope.
SYNTHETIC_PATHS = {
    "RL401": "fixtures/repro/core/pipeline.py",
    "RL402": "fixtures/repro/stream/engine.py",
    "RL503": "src/repro/serve/app.py",
}
DEFAULT_PATH = "src/repro/core/fixture_under_test.py"


def fixture_cases():
    for path in sorted(FIXTURE_DIR.glob("rl*_*.py")):
        code = path.name.split("_")[0].upper()
        expect_findings = path.name.split("_")[1] == "bad"
        yield pytest.param(path, code, expect_findings, id=path.stem)
    # Whole-program rules need more than one file; their fixtures are
    # directory trees under flow/ whose layout *is* the synthetic path.
    for path in sorted((FIXTURE_DIR / "flow").glob("rl*_*")):
        if path.is_dir():
            code = path.name.split("_")[0].upper()
            expect_findings = path.name.split("_")[1] == "bad"
            yield pytest.param(path, code, expect_findings, id=path.name)


def lint_fixture(path: Path, code: str):
    if path.is_dir():
        return lint_fixture_tree(path)
    lint_path = SYNTHETIC_PATHS.get(code, DEFAULT_PATH)
    return LintRunner().run_source(path.read_text(), lint_path)


def lint_fixture_tree(root: Path):
    """Lint a directory fixture; file paths inside it are the lint paths."""
    contexts = {}
    for file in sorted(root.rglob("*.py")):
        lint_path = file.relative_to(root).as_posix()
        contexts[lint_path] = FileContext.parse(lint_path, file.read_text())
    return LintRunner().run_contexts(contexts)


class TestFixtureCorpus:
    @pytest.mark.parametrize("path, code, expect_findings", list(fixture_cases()))
    def test_fixture(self, path, code, expect_findings):
        codes = [finding.code for finding in lint_fixture(path, code)]
        assert "RL000" not in codes, "fixture must parse"
        if expect_findings:
            assert code in codes, f"{path.name} should trigger {code}, got {codes}"
        else:
            assert code not in codes, f"{path.name} should not trigger {code}: {codes}"

    def test_every_rule_has_a_failing_fixture(self):
        """Each shipped rule's code is proven to fire by >= 1 bad fixture."""
        covered = {
            path.name.split("_")[0].upper()
            for path in FIXTURE_DIR.glob("rl*_bad_*.py")
        } | {
            path.name.split("_")[0].upper()
            for path in (FIXTURE_DIR / "flow").glob("rl*_bad_*")
        }
        for rule in all_rules():
            assert rule.code in covered, f"no failing fixture for {rule.code}"

    def test_every_rule_has_a_good_fixture(self):
        covered = {
            path.name.split("_")[0].upper()
            for path in FIXTURE_DIR.glob("rl*_good_*.py")
        } | {
            path.name.split("_")[0].upper()
            for path in (FIXTURE_DIR / "flow").glob("rl*_good_*")
        }
        for rule in all_rules():
            assert rule.code in covered, f"no passing fixture for {rule.code}"


class TestRuleDetails:
    def test_wall_clock_reports_each_call(self):
        findings = lint_fixture(FIXTURE_DIR / "rl101_bad_wall_clock.py", "RL101")
        assert len([f for f in findings if f.code == "RL101"]) == 3

    def test_wall_clock_out_of_scope_paths_ignored(self):
        source = "from time import time\nNOW = time()\n"
        findings = LintRunner().run_source(source, "src/repro/obs/clock.py")
        assert not [f for f in findings if f.code == "RL101"]
        findings = LintRunner().run_source(source, "tests/test_something.py")
        assert not [f for f in findings if f.code == "RL101"]

    def test_global_random_flags_aliased_import(self):
        source = "import random as rnd\n\ndef f():\n    return rnd.random()\n"
        findings = LintRunner().run_source(source, DEFAULT_PATH)
        assert [f.code for f in findings] == ["RL102"]

    def test_seeded_random_instance_allowed(self):
        source = "import random\nR = random.Random(7)\n"
        findings = LintRunner().run_source(source, DEFAULT_PATH)
        assert not [f for f in findings if f.code == "RL102"]

    def test_set_iteration_fix_metadata_present(self):
        findings = lint_fixture(FIXTURE_DIR / "rl103_bad_set_iteration.py", "RL103")
        rl103 = [f for f in findings if f.code == "RL103"]
        assert rl103 and all(f.fixable for f in rl103)

    def test_metric_name_findings_name_each_failure_mode(self):
        findings = lint_fixture(FIXTURE_DIR / "rl301_bad_metric_names.py", "RL301")
        messages = " / ".join(f.message for f in findings if f.code == "RL301")
        assert "literal metric name" in messages
        assert "not declared" in messages
        assert "repro.cli" in messages

    def test_live_telemetry_reports_each_failure_mode(self):
        findings = lint_fixture(
            FIXTURE_DIR / "rl302_bad_live_telemetry.py", "RL302"
        )
        messages = [f.message for f in findings if f.code == "RL302"]
        assert len(messages) == 3
        joined = " / ".join(messages)
        assert "string literal" in joined
        assert "not declared" in joined
        assert "daemon=True" in joined

    def test_live_telemetry_scope_excludes_tests(self):
        source = "import threading\nT = threading.Thread(target=print)\n"
        findings = LintRunner().run_source(source, "tests/test_x.py")
        assert not [f for f in findings if f.code == "RL302"]

    def test_bare_except_carries_fix(self):
        findings = lint_fixture(FIXTURE_DIR / "rl501_bad_bare_except.py", "RL501")
        assert any(f.code == "RL501" and f.fixable for f in findings)

    def test_swallow_rule_reports_both_handlers(self):
        findings = lint_fixture(FIXTURE_DIR / "rl502_bad_swallow.py", "RL502")
        assert len([f for f in findings if f.code == "RL502"]) == 2

    def test_serve_error_model_reports_each_swallow(self):
        findings = lint_fixture(
            FIXTURE_DIR / "rl503_bad_swallowed_serve_error.py", "RL503"
        )
        assert len([f for f in findings if f.code == "RL503"]) == 2

    def test_serve_error_model_scope(self):
        """RL503 binds serve code only, and not the host loop."""
        source = "try:\n    x = 1\nexcept ValueError:\n    x = 2\n"
        in_scope = LintRunner().run_source(source, "src/repro/serve/app.py")
        assert [f.code for f in in_scope if f.code == "RL503"] == ["RL503"]
        for path in ("src/repro/core/pipeline.py", "src/repro/serve/server.py"):
            findings = LintRunner().run_source(source, path)
            assert not [f for f in findings if f.code == "RL503"]


class TestProtocolRulesOnRealTree:
    """The registry anchors must resolve against the actual repository —
    a rename that silently un-anchors the rules should fail here."""

    @pytest.fixture(scope="class")
    def real_index(self):
        contexts = {}
        root = Path(__file__).parent.parent / "src" / "repro"
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent.parent).as_posix()
            contexts[rel] = FileContext.parse(rel, path.read_text())
        return ProjectIndex(contexts)

    def test_batch_registry_resolves_all_three_detectors(self, real_index):
        rule = BatchDetectorProtocolRule()
        ctx = real_index.find_file(rule.anchor_suffix)
        classes = {name for name, _ in rule.registry_classes(ctx)}
        assert classes == {
            "KeyCompromiseDetector",
            "RegistrantChangeDetector",
            "ManagedTlsDetector",
        }
        assert list(rule.check_project(real_index)) == []

    def test_stream_registry_resolves_all_three_wrappers(self, real_index):
        rule = StreamDetectorProtocolRule()
        ctx = real_index.find_file(rule.anchor_suffix)
        classes = {name for name, _ in rule.registry_classes(ctx)}
        assert classes == {
            "IncrementalKeyCompromiseDetector",
            "IncrementalRegistrantChangeDetector",
            "IncrementalManagedTlsDetector",
        }
        assert list(rule.check_project(real_index)) == []

    @pytest.mark.parametrize(
        "member",
        [
            # Every member StreamEngine reads or calls on self._detectors.
            "name",
            "event_type",
            "register_certificate",
            "consume",
            "finalize",
            "findings",
            "stats",
            "checkpoint_state",
            "restore_state",
            "after_resume",
        ],
    )
    def test_removing_a_member_is_detected(self, real_index, member):
        """Renaming away any member the engine uses, in every stream
        wrapper, fails the lint once per wrapper."""
        rule = StreamDetectorProtocolRule()
        detectors_path = next(
            path for path in real_index.files
            if path.endswith("repro/stream/detectors.py")
        )
        # Class-body definitions only: methods, properties and class
        # attributes sit at one level of indentation.
        source = re.sub(
            rf"^    (def )?{member}\b",
            rf"    \g<1>renamed_{member}",
            real_index.files[detectors_path].source,
            flags=re.MULTILINE,
        )
        contexts = dict(real_index.files)
        contexts[detectors_path] = FileContext.parse(detectors_path, source)
        findings = list(rule.check_project(ProjectIndex(contexts)))
        assert len(findings) == 3
        assert all(member in f.message for f in findings)


class TestClassInfo:
    def test_members_include_instance_attributes(self):
        import ast

        tree = ast.parse(
            "class D:\n"
            "    name = 'd'\n"
            "    def __init__(self):\n"
            "        self.stats = None\n"
            "    def detect(self, inputs):\n"
            "        pass\n"
        )
        info = ClassInfo.from_node("x.py", tree.body[0])
        assert {"name", "stats", "detect", "__init__"} <= info.members


class TestImportMap:
    def test_alias_resolution(self):
        import ast

        imports = ImportMap(
            ast.parse(
                "import datetime as _dt\n"
                "from time import time as now\n"
                "from repro.obs import names\n"
            )
        )
        assert imports.resolve("_dt.datetime.now") == "datetime.datetime.now"
        assert imports.resolve("now") == "time.time"
        assert imports.resolve("names") == "repro.obs.names"
