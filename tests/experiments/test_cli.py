"""Tests for the figure-regeneration CLI."""

import pytest

from repro.experiments.__main__ import TARGETS, main, run_target


class TestRunTarget:
    def test_matrix(self):
        text = run_target("matrix")
        assert "MIPs" in text

    def test_fig2_left_quick(self):
        text = run_target("fig2-left", quick=True)
        assert "MIPs 64" in text
        assert "docs/collection" in text

    def test_fig2_right_quick(self):
        text = run_target("fig2-right", quick=True)
        assert "mutual overlap" in text

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            run_target("fig9")


class TestMain:
    def test_prints_output(self, capsys):
        assert main(["matrix"]) == 0
        captured = capsys.readouterr()
        assert "Bloom filter" in captured.out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_all_targets_declared(self):
        assert set(TARGETS) == {
            "fig2-left",
            "fig2-right",
            "fig3-left",
            "fig3-right",
            "matrix",
            "load",
            "netload",
            "reposting",
            "churn",
            "serve",
            "hierarchy",
        }

    def test_reposting_quick(self):
        text = run_target("reposting", quick=True)
        assert "always" in text and "never" in text

    def test_load_quick(self):
        text = run_target("load", quick=True)
        assert "CORI" in text and "IQN" in text

    def test_netload_quick(self):
        text = run_target("netload", quick=True)
        assert "qps" in text and "recall" in text

    def test_serve_quick(self):
        text = run_target("serve", quick=True)
        assert "hit rate" in text and "identical" in text

    def test_churn_quick(self):
        text = run_target("churn", quick=True)
        assert "churn/min" in text and "maint msgs" in text
        assert "rescued" in text

    def test_hierarchy_quick(self):
        text = run_target("hierarchy", quick=True)
        assert "flat" in text and "super-peer" in text
        assert "msgs/q" in text

    def test_workers_flag_parses(self, capsys):
        assert main(["matrix", "--workers", "2"]) == 0
        assert "Bloom filter" in capsys.readouterr().out
