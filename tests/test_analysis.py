"""Tests for the repo-specific static-analysis toolkit (repro.analysis).

Each REP rule gets a bad/good fixture pair under ``fixtures/analysis/``;
the suppression protocol, the CLI contract and the rule engine itself are
exercised directly; and a self-check asserts the shipped ``src/repro``
tree carries zero unsuppressed findings -- the same invariant ``make
analyze`` and CI enforce.
"""

from __future__ import annotations

import json as jsonlib
from pathlib import Path

import pytest

import repro.analysis as analysis
from repro.analysis import (
    AnalysisError,
    FileContext,
    all_rules,
    analyze_paths,
    render_json,
    render_text,
)
from repro.analysis.__main__ import main
from repro.analysis.engine import module_name_for
from repro.analysis.rules.rep004_registry_bypass import (
    RegistryBypassRule,
    registered_impls,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

#: Rules whose fixtures can be analysed by on-disk path.  REP004 exempts
#: the tests/ tree, so its fixtures are driven through FileContext below.
PATH_DRIVEN_RULES = ["REP001", "REP002", "REP003", "REP005", "REP006",
                     "REP007", "REP008"]


def findings_for(filename: str, rule_id: str):
    rules = [r for r in all_rules() if r.rule_id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    return analyze_paths([FIXTURES / filename], rules=rules)


# ----------------------------------------------------------------------
# bad/good fixture pairs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", PATH_DRIVEN_RULES)
def test_bad_fixture_fails(rule_id):
    findings = findings_for(f"{rule_id.lower()}_bad.py", rule_id)
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed, f"{rule_id} found nothing in its bad fixture"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line > 0 and f.hint for f in findings)


@pytest.mark.parametrize("rule_id", PATH_DRIVEN_RULES)
def test_good_fixture_passes(rule_id):
    findings = findings_for(f"{rule_id.lower()}_good.py", rule_id)
    assert findings == [], render_text(findings, include_suppressed=True)


def _rep004_context(filename: str) -> FileContext:
    # A synthetic path outside tests/ so the deliberate tests-tree
    # exemption does not hide the fixture from the rule.
    source = (FIXTURES / filename).read_text(encoding="utf-8")
    return FileContext(Path("somepkg") / filename, source)


def test_rep004_bad_fixture_fails():
    findings = list(RegistryBypassRule().check(_rep004_context("rep004_bad.py")))
    assert findings
    assert all(f.rule == "REP004" for f in findings)
    assert "solve_bicrit_discrete_milp" in findings[0].message


def test_rep004_good_fixture_passes():
    assert list(RegistryBypassRule().check(_rep004_context("rep004_good.py"))) == []


def test_rep004_exempts_test_trees():
    # The same bad fixture analysed at its real path (under tests/) is
    # exempt: tests exercise impls directly on purpose.
    findings = findings_for("rep004_bad.py", "REP004")
    assert findings == []


def test_registry_parse_finds_managed_impls():
    impls = registered_impls()
    assert impls.get("repro.discrete.exact"), impls
    assert "solve_bicrit_discrete_milp" in impls["repro.discrete.exact"]


def test_rep001_flags_dict_but_not_set_comprehensions():
    # A dict keeps insertion order, so its keys leak the set's order; a
    # set comprehension rebuilds an unordered container.
    rules = {r.rule_id: r for r in all_rules()}
    bad = FileContext(Path("somepkg/mod.py"),
                      "s = {1, 2}\nd = {k: k for k in s}\n")
    findings = list(rules["REP001"].check(bad))
    assert [(f.line, "dict comprehension" in f.message)
            for f in findings] == [(2, True)]
    good = FileContext(Path("somepkg/mod.py"),
                       "s = {1, 2}\nt = {k + 1 for k in s}\n")
    assert list(rules["REP001"].check(good)) == []
    bad_lines = [f.line for f in findings_for("rep001_bad.py", "REP001")]
    assert 15 in bad_lines          # the fixture's dict comprehension


# ----------------------------------------------------------------------
# suppression protocol
# ----------------------------------------------------------------------
def test_suppressed_fixture_counts_but_does_not_fail():
    findings = analyze_paths([FIXTURES / "suppressed.py"])
    assert findings, "suppression fixture should still produce findings"
    assert all(f.suppressed for f in findings), render_text(
        findings, include_suppressed=True)
    # Trailing-comment, standalone-comment-above and multi-id forms all
    # land at least one suppressed finding each.
    rules_seen = {f.rule for f in findings}
    assert {"REP001", "REP002", "REP006"} <= rules_seen


def test_suppression_requires_matching_rule_id():
    source = "s = {1, 2}\nx = list(s)  # repro: allow[REP006] -- wrong id\n"
    ctx = FileContext(Path("somepkg/mod.py"), source)
    rules = {r.rule_id: r for r in all_rules()}
    findings = list(rules["REP001"].check(ctx))
    assert findings and not findings[0].suppressed


def test_wildcard_suppression():
    source = "s = {1, 2}\nx = list(s)  # repro: allow[*] -- demo code\n"
    ctx = FileContext(Path("somepkg/mod.py"), source)
    rules = {r.rule_id: r for r in all_rules()}
    findings = list(rules["REP001"].check(ctx))
    assert findings and findings[0].suppressed


def test_standalone_comment_stops_at_blank_line():
    source = ("# repro: allow[REP001] -- detached by the blank line\n"
              "\n"
              "s = {1, 2}\n"
              "x = list(s)\n")
    ctx = FileContext(Path("somepkg/mod.py"), source)
    rules = {r.rule_id: r for r in all_rules()}
    findings = list(rules["REP001"].check(ctx))
    assert findings and not findings[0].suppressed


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_module_name_for_maps_package_paths():
    assert module_name_for(Path("src/repro/api/engine.py")) == "repro.api.engine"
    assert module_name_for(Path("src/repro/store/__init__.py")) == "repro.store"
    assert module_name_for(Path("somewhere/fixture_mod.py")) == "fixture_mod"


def test_syntax_error_raises_analysis_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    with pytest.raises(AnalysisError):
        analyze_paths([bad])


def test_missing_path_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_paths([FIXTURES / "does_not_exist.py"])


def test_findings_are_stably_ordered():
    findings = analyze_paths([FIXTURES / "rep001_bad.py",
                              FIXTURES / "rep002_bad.py"])
    keys = [(f.path, f.line, f.col, f.rule) for f in findings]
    assert keys == sorted(keys)


def test_render_json_shape():
    findings = analyze_paths([FIXTURES / "rep006_bad.py"])
    payload = jsonlib.loads(render_json(findings))
    assert set(payload) == {"findings", "unsuppressed", "suppressed"}
    assert payload["unsuppressed"] == len(findings)
    first = payload["findings"][0]
    assert set(first) == {"rule", "path", "line", "col", "message", "hint",
                          "suppressed"}


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
def test_cli_exit_one_on_findings(capsys):
    assert main([str(FIXTURES / "rep002_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "REP002" in out and "hint:" in out


def test_cli_exit_zero_on_clean(capsys):
    assert main([str(FIXTURES / "rep002_good.py")]) == 0
    assert "0 finding(s), 0 suppressed" in capsys.readouterr().out


def test_cli_exit_zero_when_all_suppressed(capsys):
    assert main([str(FIXTURES / "suppressed.py")]) == 0
    out = capsys.readouterr().out
    assert "[suppressed]" not in out  # hidden without --include-suppressed


def test_cli_include_suppressed_shows_audit_trail(capsys):
    assert main(["--include-suppressed", str(FIXTURES / "suppressed.py")]) == 0
    assert "[suppressed]" in capsys.readouterr().out


def test_cli_json_output(capsys):
    code = main(["--json", str(FIXTURES / "rep003_bad.py")])
    assert code == 1
    payload = jsonlib.loads(capsys.readouterr().out)
    assert payload["unsuppressed"] > 0
    assert all(f["rule"] == "REP003" for f in payload["findings"])


def test_cli_rule_selection(capsys):
    # Only REP006 requested: the REP001 violations in the same file are
    # not reported.
    code = main(["--rules", "REP006", str(FIXTURES / "rep001_bad.py")])
    assert code == 0
    capsys.readouterr()


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "REP999", str(FIXTURES / "rep001_bad.py")]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(capsys):
    assert main([str(FIXTURES / "nope.py")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ["REP001", "REP002", "REP003", "REP004", "REP005",
                    "REP006", "REP007", "REP008"]:
        assert rule_id in out


# ----------------------------------------------------------------------
# self-check: the shipped tree is clean
# ----------------------------------------------------------------------
def test_shipped_tree_has_zero_unsuppressed_findings():
    pkg_root = Path(analysis.__file__).resolve().parents[1]
    findings = analyze_paths([pkg_root])
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed == [], "\n" + render_text(findings)
    # The audit trail of deliberate exceptions stays visible.
    assert any(f.suppressed for f in findings)
