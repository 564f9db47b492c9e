"""reprolint test suite: per-rule fixtures, suppressions, whitelist,
CLI contract, and the repo-is-clean meta-tests.

Each rule has one good and one bad fixture under
``tests/fixtures/lint/``; the bad file contains exactly three
violations of its rule and nothing else, the good file is the
idiomatic rewrite and must be completely clean.  The fixtures are
linted through :func:`lint_source` with a synthetic module path so the
scoped rules (RPL001/RPL002) see them as simulation code.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_paths, lint_source
from repro.lint.runner import main as lint_main
from repro.lint.whitelist import WHITELIST

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

# rule code -> (synthetic module path, expected violations in the bad file)
CASES = {
    "RPL001": ("repro/traffic/fixture_mod.py", 3),
    "RPL002": ("repro/sim/fixture_mod.py", 3),
    "RPL003": ("repro/experiments/fixture_mod.py", 3),
    "RPL004": ("repro/parallel_fixture.py", 3),
    "RPL005": ("repro/defense/fixture_mod.py", 3),
}


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(CASES))
    def test_bad_fixture_flagged(self, code):
        module_path, expected = CASES[code]
        diags = lint_source(_fixture(f"{code.lower()}_bad.py"), module_path)
        assert len(diags) == expected, [d.render() for d in diags]
        assert {d.code for d in diags} == {code}
        # file:line:col diagnostics point at real source positions
        for d in diags:
            assert d.path == module_path
            assert d.line > 1  # past the docstring
            assert d.col >= 1

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_good_fixture_clean(self, code):
        module_path, _ = CASES[code]
        diags = lint_source(_fixture(f"{code.lower()}_good.py"), module_path)
        assert diags == [], [d.render() for d in diags]

    def test_every_rule_has_fixture_pair(self):
        codes = {rule.code for rule in ALL_RULES}
        assert codes == set(CASES)
        for code in codes:
            assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
            assert (FIXTURES / f"{code.lower()}_good.py").is_file()


class TestScoping:
    def test_rpl001_ignores_non_library_code(self):
        # tests/benchmarks may seed ad-hoc RNGs deliberately
        diags = lint_source(_fixture("rpl001_bad.py"), "tests/helper.py")
        assert [d for d in diags if d.code == "RPL001"] == []

    def test_rpl002_only_in_sim_packages(self):
        src = _fixture("rpl002_bad.py")
        assert lint_source(src, "repro/experiments/runner_mod.py") == []
        assert lint_source(src, "repro/pushback/acc_mod.py") != []

    def test_generator_instance_draws_not_flagged(self):
        src = (
            "def f(rng):\n"
            "    return rng.random() + rng.uniform() + rng.normal()\n"
        )
        assert lint_source(src, "repro/sim/mod.py") == []

    def test_np_random_generator_annotation_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> np.random.Generator:\n"
            "    return np.random.Generator(np.random.PCG64(1))\n"
        )
        assert lint_source(src, "repro/sim/mod.py") == []

    def test_plain_dict_keys_iteration_not_flagged(self):
        # dicts iterate in insertion order — only keys-view *algebra*
        # (a set) is unordered
        src = "def f(d):\n    return [k for k in d.keys()]\n"
        assert lint_source(src, "repro/sim/mod.py") == []


class TestSuppression:
    SRC = "import random  # reprolint: ignore[RPL001] -- test double\n"

    def test_inline_suppression(self):
        assert lint_source(self.SRC, "repro/sim/mod.py") == []

    def test_suppression_is_per_code(self):
        src = "import random  # reprolint: ignore[RPL003]\n"
        diags = lint_source(src, "repro/sim/mod.py")
        assert [d.code for d in diags] == ["RPL001"]

    def test_bare_ignore_suppresses_all(self):
        src = "import random  # reprolint: ignore\n"
        assert lint_source(src, "repro/sim/mod.py") == []

    def test_comment_block_above_covers_next_line(self):
        src = (
            "# reprolint: ignore[RPL001] -- long justification that\n"
            "# wraps over two comment lines\n"
            "import random\n"
        )
        assert lint_source(src, "repro/sim/mod.py") == []

    def test_unrelated_line_not_suppressed(self):
        src = (
            "import random  # reprolint: ignore[RPL001]\n"
            "import random\n"
        )
        diags = lint_source(src, "repro/sim/mod.py")
        assert len(diags) == 1
        assert diags[0].line == 2


class TestWhitelist:
    def test_rng_registry_site_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, "repro/sim/rng.py") == []
        assert lint_source(src, "repro/sim/other.py") != []

    def test_directory_prefix_entries(self):
        src = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        # repro/obs/ is whitelisted for RPL002 (and out of scope anyway);
        # the same read in repro/sim must flag
        assert lint_source(src, "repro/sim/engine_mod.py") != []

    def test_every_entry_has_reason(self):
        for path, rules in WHITELIST.items():
            for code, reason in rules.items():
                assert code.startswith("RPL")
                assert len(reason.strip()) > 10, (path, code)

    def test_every_entry_names_an_existing_module(self):
        # A key left behind by a deleted module would silently exempt
        # any future module at that path.
        src = REPO_ROOT / "src"
        for key in WHITELIST:
            if key.endswith("/"):
                assert (src / key).is_dir(), key
            else:
                assert (src / key).is_file(), key


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert lint_main([str(f)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_with_diagnostics_on_bad_file(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert lint_main([str(f)]) == 1
        out = capsys.readouterr().out
        assert f"{f}:1:" in out
        assert "RPL005" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        assert lint_main([str(tmp_path / "absent.txt")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        assert lint_main([str(f)]) == 1
        assert "RPL000" in capsys.readouterr().out

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_exit_nonzero_on_each_bad_fixture(self, code, tmp_path, capsys):
        # Stage the fixture under a src/repro/... tree so the scoped
        # rules see it as library code, then run the real CLI on it.
        module_path, expected = CASES[code]
        staged = tmp_path / "src" / module_path
        staged.parent.mkdir(parents=True)
        staged.write_text(_fixture(f"{code.lower()}_bad.py"), encoding="utf-8")
        assert lint_main([str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert out.count(f" {code} ") == expected
        # file:line:col: CODE diagnostics
        assert f"{staged}:" in out


class TestRepoIsClean:
    """The determinism contract holds across the whole repo."""

    def test_src_clean(self):
        diags = lint_paths([str(REPO_ROOT / "src")])
        assert diags == [], "\n".join(d.render() for d in diags)

    def test_tests_and_benchmarks_clean(self):
        diags = lint_paths(
            [str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks")]
        )
        assert diags == [], "\n".join(d.render() for d in diags)
