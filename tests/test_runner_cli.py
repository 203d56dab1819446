"""Tests for the experiments CLI runner."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main


class TestRegistry:
    def test_all_figures_registered(self):
        for figure in range(4, 16):
            assert f"fig{figure:02d}" in EXPERIMENTS

    def test_section_experiments_registered(self):
        for section in ("sec4", "sec5", "sec7"):
            assert section in EXPERIMENTS

    def test_extension_experiments_registered(self):
        for extension in (
            "ext-horizon", "ext-churn", "ext-cache", "ext-dataflow",
            "ext-join", "ext-optimizer", "ext-scenario",
        ):
            assert extension in EXPERIMENTS

    def test_host_time_sweeps_are_not_experiments(self):
        """Host time is measured by ``python3 -m bench`` alone."""
        assert not {"ext-obs", "ext-runtime"} & set(EXPERIMENTS)


class TestMain:
    def test_runs_single_experiment(self, capsys):
        exit_code = main(["--scale", "small", "--only", "fig09"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "replica_threshold" in out

    def test_runs_multiple(self, capsys):
        assert main(["--scale", "small", "--only", "fig09", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "fig10" in out

    def test_output_depends_only_on_the_code(self, capsys):
        """Two runs print the same bytes: no wall-clock line."""
        outputs = []
        for _ in range(2):
            assert main(["--scale", "small", "--only", "fig09", "sec4"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "== fig09" in outputs[0] and "== sec4" in outputs[0]
        assert "completed in" not in outputs[0]

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["--scale", "huge"])
