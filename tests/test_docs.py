"""Consistency checks between documentation and the codebase."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDeliverablesExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "pyproject.toml",
        "docs/architecture.md", "docs/hdf5-format.md",
    ])
    def test_file_present(self, name):
        assert (ROOT / name).exists(), name

    def test_examples_present(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()

    def test_regenerating_command_per_table_and_figure(self):
        from repro.experiments import EXPERIMENTS
        design = (ROOT / "DESIGN.md").read_text()
        for artefact in ("table4", "table5", "table6", "table7", "table8",
                         "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert artefact in EXPERIMENTS, artefact
            assert f"`repro-experiments run {artefact}`" in design, artefact


class TestReadmeConsistency:
    def test_architecture_tree_names_real_packages(self):
        readme = (ROOT / "README.md").read_text()
        for package in ("hdf5", "nn", "models", "frameworks", "data",
                        "injector", "distributed", "analysis",
                        "experiments", "stencil"):
            assert (ROOT / "src" / "repro" / package).is_dir(), package
            assert f"{package}/" in readme, package

    def test_example_names_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"`([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_console_scripts_registered(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert "hdf5-corrupter" in pyproject
        assert "repro-experiments" in pyproject


class TestDesignConsistency:
    def test_design_lists_every_registered_experiment(self):
        from repro.experiments import EXPERIMENTS
        design = (ROOT / "DESIGN.md").read_text()
        for experiment_id in EXPERIMENTS:
            if experiment_id == "environment":
                continue  # meta-report, listed by name in §6
            assert experiment_id in design, experiment_id

    def test_design_declares_paper_match(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "No title collision" in design

    def test_catalog_ids_are_registered(self):
        from repro.experiments import EXPERIMENTS
        from repro.experiments.report import CATALOG
        for experiment_id, _, _ in CATALOG:
            assert experiment_id in EXPERIMENTS, experiment_id
