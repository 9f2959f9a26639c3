"""Tests for the EXPERIMENTS.md generator."""

import json
import pathlib

from repro.experiments.report import CATALOG, build_report, main


def make_result(results_dir: pathlib.Path, experiment_id: str) -> None:
    (results_dir / f"{experiment_id}.txt").write_text(
        f"{experiment_id} rendered table\n\n[scale=smoke]\n"
    )
    (results_dir / f"{experiment_id}.json").write_text(json.dumps({
        "experiment_id": experiment_id, "title": "t", "headers": [],
        "rows": [[1]], "scale": "smoke",
    }))


def test_catalog_covers_all_paper_artifacts():
    ids = [entry[0] for entry in CATALOG]
    for required in ("table4", "table5", "table6", "table7", "table8",
                     "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
        assert required in ids


def test_build_report_embeds_archived_results(tmp_path):
    make_result(tmp_path, "table4")
    report = build_report(tmp_path)
    assert "table4 rendered table" in report
    assert "scale `smoke`" in report
    # absent experiments point at the regenerating command
    assert "repro-experiments run fig7 --scale tiny" in report


def test_paper_values_present(tmp_path):
    report = build_report(tmp_path)
    assert "chainer/vgg16: 0.0% / 2.8% / 12.8% / 75.2%" in report  # Table IV
    assert "alexnet/tensorflow: 98.8%" in report  # Table V
    assert "mask 11101101" in report  # Table VI


def test_main_writes_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    make_result(results, "fig2")
    output = tmp_path / "EXPERIMENTS.md"
    assert main(["--results", str(results), "--output", str(output)]) == 0
    assert output.exists()
    assert "fig2 rendered table" in output.read_text()
    assert "wrote" in capsys.readouterr().out
