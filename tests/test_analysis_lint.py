"""repro-lint: every rule fires on its bad fixture, stays silent on good.

Fixtures live in ``tests/fixtures/lint`` and are linted under *virtual*
paths so each scoped rule (geometry / core / grid / server) sees a
module inside its package.  The final test asserts the repo's own
``src/repro`` tree lints clean — the same gate CI runs via
``python -m repro.analysis.lint src/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    default_rules,
    fix_unused_imports,
    github_annotation,
    lint_paths,
    lint_source,
    main,
)
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RULE_BY_CODE = {cls.code: cls for cls in ALL_RULES}

#: virtual path per rule satisfying its scope; unscoped rules get a
#: neutral package that no scoped rule matches.
VIRTUAL_PATH = {
    "REP001": "src/repro/geometry/fixture.py",
    "REP004": "src/repro/core/fixture.py",
    "REP005": "src/repro/grid/fixture.py",
    "REP006": "src/repro/shard/fixture.py",
    "REP007": "src/repro/core/fixture.py",
    "REP105": "src/repro/core/fixture.py",
}
NEUTRAL_PATH = "src/repro/util/fixture.py"

#: finding count the bad fixture must produce under its own rule.
BAD_EXPECT = {
    "REP001": 1,  # best == 0.0
    "REP002": 3,  # time.sleep, open(), np.concatenate
    "REP003": 2,  # await under lock, time.sleep under lock
    "REP004": 2,  # operator kernel + ufunc-alias kernel
    "REP005": 1,  # window_query reaches only _store
    "REP006": 4,  # dict/list/set globals + a `global` statement
    "REP007": 2,  # np.load + np.memmap, no format helper in sight
    "REP101": 1,
    "REP102": 2,  # [] and dict()
    "REP103": 1,
    "REP104": 1,  # os imported, unused
    "REP105": 4,  # lookup params+return, Table.get params+return
}


def run_rule(code: str, source: str, path: "str | None" = None) -> list[Finding]:
    rule = RULE_BY_CODE[code]()
    return lint_source(path or VIRTUAL_PATH.get(code, NEUTRAL_PATH), source, [rule])


@pytest.mark.parametrize("code", sorted(RULE_BY_CODE))
def test_rule_fires_on_bad_fixture(code):
    source = (FIXTURES / f"{code.lower()}_bad.py").read_text()
    findings = run_rule(code, source)
    assert [f.code for f in findings] == [code] * BAD_EXPECT[code]
    assert all(f.line >= 1 and f.col >= 1 for f in findings)


@pytest.mark.parametrize("code", sorted(RULE_BY_CODE))
def test_rule_silent_on_good_fixture(code):
    source = (FIXTURES / f"{code.lower()}_good.py").read_text()
    assert run_rule(code, source) == []


@pytest.mark.parametrize("code", sorted(RULE_BY_CODE))
def test_bad_fixture_raises_no_foreign_scoped_findings(code):
    """Running *all* rules on a bad fixture only ever reports codes the
    fixture deliberately violates (the fixture's own rule chief among
    them) — rules don't misfire on each other's examples."""
    source = (FIXTURES / f"{code.lower()}_bad.py").read_text()
    path = VIRTUAL_PATH.get(code, NEUTRAL_PATH)
    findings = lint_source(path, source, default_rules())
    assert {f.code for f in findings if f.code == code}, code


class TestScoping:
    def test_scoped_rule_ignores_other_packages(self):
        source = (FIXTURES / "rep001_bad.py").read_text()
        assert run_rule("REP001", source, path="src/repro/server/fixture.py") == []

    def test_wall_clock_allowed_in_obs(self):
        source = (FIXTURES / "rep103_bad.py").read_text()
        assert run_rule("REP103", source, path="src/repro/obs/fixture.py") == []

    def test_unused_import_allowed_in_init(self):
        source = (FIXTURES / "rep104_bad.py").read_text()
        assert run_rule("REP104", source, path="src/repro/util/__init__.py") == []


class TestSuppression:
    BAD = "def t(b: float) -> bool:\n    return b == 0.0{comment}\n"
    PATH = "src/repro/geometry/fixture.py"

    def lint(self, comment: str = "", prefix: str = "") -> list[Finding]:
        source = prefix + self.BAD.format(comment=comment)
        return lint_source(self.PATH, source, default_rules())

    def test_unsuppressed_fires(self):
        assert [f.code for f in self.lint()] == ["REP001"]

    def test_line_disable(self):
        assert self.lint(comment="  # repro-lint: disable=REP001") == []

    def test_line_disable_all(self):
        assert self.lint(comment="  # repro-lint: disable=all") == []

    def test_wrong_code_does_not_suppress(self):
        findings = self.lint(comment="  # repro-lint: disable=REP104")
        assert [f.code for f in findings] == ["REP001"]

    def test_disable_on_other_line_does_not_suppress(self):
        findings = self.lint(prefix="x = 1  # repro-lint: disable=REP001\n")
        assert [f.code for f in findings] == ["REP001"]

    def test_file_disable(self):
        prefix = "# repro-lint: disable-file=REP001\n"
        assert self.lint(prefix=prefix) == []

    def test_file_disable_all(self):
        prefix = "# repro-lint: disable-file=all\n"
        assert self.lint(prefix=prefix) == []

    def test_multiple_codes_comma_separated(self):
        comment = "  # repro-lint: disable=REP104, REP001"
        assert self.lint(comment=comment) == []


class TestHarness:
    def test_syntax_error_reports_rep000(self):
        findings = lint_source("src/repro/core/broken.py", "def f(:\n")
        assert [f.code for f in findings] == ["REP000"]

    def test_findings_sorted_and_rendered(self):
        source = (FIXTURES / "rep102_bad.py").read_text()
        findings = run_rule("REP102", source)
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.code)
        )
        rendered = findings[0].render()
        assert "REP102" in rendered and rendered.count(":") >= 3

    def test_every_rule_has_code_name_and_summary(self):
        codes = set()
        for cls in ALL_RULES:
            assert cls.code not in codes, f"duplicate code {cls.code}"
            codes.add(cls.code)
            assert cls.name and cls.summary()


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.code in out

    def test_exit_one_on_findings(self, capsys):
        rc = main([str(FIXTURES / "rep101_bad.py")])
        assert rc == 1
        assert "REP101" in capsys.readouterr().out

    def test_exit_zero_on_clean_file(self, capsys):
        rc = main(["--select", "REP101", str(FIXTURES / "rep101_good.py")])
        assert rc == 0

    def test_select_unknown_code_errors(self):
        with pytest.raises(SystemExit):
            main(["--select", "REP999", str(FIXTURES)])


class TestFix:
    PATH = "src/repro/util/fixture.py"

    def fix(self, source: str) -> tuple[str, int]:
        return fix_unused_imports(self.PATH, source)

    def test_removes_whole_unused_statement(self):
        fixed, removed = self.fix("import os\n\nx = 1\n")
        assert removed == 1
        assert fixed == "\nx = 1\n"

    def test_keeps_surviving_aliases(self):
        fixed, removed = self.fix(
            "import sys, json\n\nprint(json.dumps(1))\n"
        )
        assert removed == 1
        assert fixed == "import json\n\nprint(json.dumps(1))\n"

    def test_collapses_multiline_from_import(self):
        source = (
            "from typing import (\n"
            "    Any,\n"
            "    Iterator,\n"
            ")\n"
            "\n"
            "def f() -> Any:\n"
            "    return 1\n"
        )
        fixed, removed = self.fix(source)
        assert removed == 1
        assert fixed.startswith("from typing import Any\n")
        assert "Iterator" not in fixed

    def test_preserves_asname_and_indent(self):
        source = (
            "def f():\n"
            "    import numpy as np, json as j\n"
            "    return np.zeros(1)\n"
        )
        fixed, removed = self.fix(source)
        assert removed == 1
        assert "    import numpy as np\n" in fixed

    def test_respects_line_waiver(self):
        source = "import os  # repro-lint: disable=REP104\n\nx = 1\n"
        assert self.fix(source) == (source, 0)

    def test_respects_file_waiver(self):
        source = "# repro-lint: disable-file=REP104\nimport os\n\nx = 1\n"
        assert self.fix(source) == (source, 0)

    def test_skips_init_modules(self):
        source = "import os\n"
        assert fix_unused_imports("src/repro/util/__init__.py", source) == (
            source,
            0,
        )

    def test_idempotent(self):
        source = "import os\nimport sys, json\n\nprint(json.dumps(1))\n"
        fixed, removed = self.fix(source)
        assert removed == 2
        again, more = self.fix(fixed)
        assert more == 0 and again == fixed

    def test_fix_output_lints_clean(self):
        source = "import os\nimport sys, json\n\nprint(json.dumps(1))\n"
        fixed, _ = self.fix(source)
        assert run_rule("REP104", fixed, path=self.PATH) == []

    def test_cli_fix_rewrites_file(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import os\nimport json\n\nprint(json.dumps(1))\n")
        rc = main(["--fix", "--select", "REP104", str(target)])
        assert rc == 0
        assert target.read_text() == "import json\n\nprint(json.dumps(1))\n"
        assert "removed 1 unused import" in capsys.readouterr().out


class TestGithubAnnotations:
    def test_format_and_escaping(self):
        finding = Finding("a.py", 3, 2, "REP104", "bad\nnews % 50")
        assert github_annotation(finding) == (
            "::error file=a.py,line=3,col=2,title=REP104"
            "::bad%0Anews %25 50"
        )

    def test_cli_github_flag_emits_annotations(self, capsys):
        rc = main(
            ["--github", "--select", "REP104",
             str(FIXTURES / "rep104_bad.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=REP104" in out


def test_repo_source_tree_lints_clean():
    """The acceptance gate: the shipped tree has zero findings."""
    findings = lint_paths([str(REPO_SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_source_tree_has_nothing_to_fix(tmp_path):
    """--fix over the shipped tree is a no-op (no unused imports)."""
    from repro.analysis.lint import iter_python_files

    for path in iter_python_files([str(REPO_SRC)]):
        source = path.read_text(encoding="utf-8")
        assert fix_unused_imports(path.as_posix(), source) == (source, 0), (
            path.as_posix()
        )


def test_rep004_waiver_inventory():
    """The stats-free inventory is pinned: one pure mask helper.

    Every window kernel threads ``QueryStats``; a REP004 waiver marks a
    function that compares coordinates without it.  A new waiver — a
    stats-free twin of a kernel, say — has to be added here on purpose.
    """
    import ast

    from repro.analysis.lint import _collect_suppressions, iter_python_files

    waived = set()
    for path in iter_python_files([str(REPO_SRC)]):
        source = path.read_text(encoding="utf-8")
        lines, whole_file = _collect_suppressions(source)
        assert not {"REP004", "all"} & whole_file, path.as_posix()
        waiver_lines = {
            line
            for line, codes in lines.items()
            if "REP004" in codes or "all" in codes
        }
        if not waiver_lines:
            continue
        defs = {
            node.lineno: node.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for line in waiver_lines:
            waived.add(f"{path.stem}.{defs.get(line, line)}")
    assert waived == {"two_layer._window_class_mask"}
