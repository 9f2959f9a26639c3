"""Tests for the repro-experiments command line."""

import json

import pytest

from repro import telemetry
from repro.experiments.cli import build_parser, campaign_kwargs, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "table4" in out
    assert "fig7" in out
    assert "ablation_scrub" in out


def test_validate_checkpoints_flag_reaches_campaign_kwargs():
    args = build_parser().parse_args(
        ["run", "table5", "--validate-checkpoints"])
    kwargs = campaign_kwargs(args, "table5", multiple=False)
    assert kwargs["spec"].validate_checkpoints is True
    # non-campaign experiments take no engine kwargs at all
    assert campaign_kwargs(args, "fig2", multiple=False) == {}


def test_validate_checkpoints_defaults_off():
    args = build_parser().parse_args(["run", "table5"])
    kwargs = campaign_kwargs(args, "table5", multiple=False)
    assert kwargs["spec"].validate_checkpoints is False


def test_batch_trials_flag_reaches_campaign_kwargs():
    args = build_parser().parse_args(
        ["run", "fig3", "--batch-trials", "4"])
    kwargs = campaign_kwargs(args, "fig3", multiple=False)
    assert kwargs["spec"].batch_trials == 4
    # by default whatever runs the campaign picks the chunk size
    default = build_parser().parse_args(["run", "fig3"])
    assert campaign_kwargs(default, "fig3",
                           multiple=False)["spec"].batch_trials is None


def test_campaign_kwargs_carries_canonical_spec():
    """`run` funnels flags through the same CampaignSpec that `submit`
    POSTs, so the two entry points describe identical plans."""
    args = build_parser().parse_args(
        ["run", "fig3", "--scale", "smoke", "--seed", "7",
         "--engine", "scalar", "--journal", "j.jsonl"])
    kwargs = campaign_kwargs(args, "fig3", multiple=False)
    spec = kwargs["spec"]
    assert (spec.kind, spec.scale, spec.seed, spec.engine) == \
        ("fig3", "smoke", 7, "scalar")
    # execution-site knobs stay out of the spec
    assert kwargs["journal"] == "j.jsonl"
    assert kwargs["workers"] == 1
    assert kwargs["resume"] is False
    assert "journal" not in spec.to_dict()


def test_submit_flags_build_the_same_spec():
    from repro.experiments.cli import spec_from_args

    run_args = build_parser().parse_args(
        ["run", "table5", "--scale", "smoke", "--seed", "9"])
    submit_args = build_parser().parse_args(
        ["submit", "table5", "--url", "http://x", "--scale", "smoke",
         "--seed", "9"])
    assert spec_from_args(run_args, "table5").canonical_json() == \
        spec_from_args(submit_args, "table5").canonical_json()


def test_unknown_experiment(capsys):
    assert main(["run", "table99", "--scale", "smoke"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_batch_trials_pairs_with_trial_timeout(capsys, monkeypatch):
    """No campaign flag excludes another: a stacked chunk's deadline is
    its trials' summed deadlines."""
    from repro.experiments import cli
    from repro.experiments.common import ExperimentResult

    ran = {}

    def fake_run(experiment_id, **kwargs):
        ran[experiment_id] = kwargs
        return ExperimentResult(experiment_id, "t", [], [], "rendered")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert main(["run", "fig3", "--scale", "smoke", "--batch-trials", "4",
                 "--trial-timeout", "600"]) == 0
    spec = ran["fig3"]["spec"]
    assert (spec.batch_trials, spec.trial_timeout) == (4, 600.0)
    assert "rendered" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-trials", "0", "bad spec: batch_trials"),
    ("--trial-timeout", "-1", "bad spec: trial_timeout"),
    ("--retries", "-1", "bad spec: retries"),
    ("--workers", "-2", "--workers must be at least 1"),
])
def test_bad_campaign_flag_is_a_usage_error(capsys, flag, value, message):
    """Reported before any experiment runs, fig2 included."""
    assert main(["run", "fig2", "fig3", "--scale", "smoke",
                 flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Fig 2" not in captured.out


def test_run_fig2_smoke(capsys):
    assert main(["run", "fig2", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out
    assert "completed in" in out


def test_run_json_output(capsys):
    assert main(["run", "fig2", "--scale", "smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment_id"] == "fig2"
    assert payload["rows"]


def test_seed_flag_changes_nothing_structural(capsys):
    assert main(["run", "fig2", "--scale", "smoke", "--seed", "7"]) == 0
    assert "Fig 2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Telemetry + verbosity flags
# ---------------------------------------------------------------------------


def test_run_records_telemetry_stream(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    assert main(["run", "fig2", "--scale", "smoke",
                 "--telemetry", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "recording telemetry to" in out  # info-level log on stdout
    events = telemetry.load_events(str(stream))
    assert any(e["type"] == "span" for e in events)
    assert any(e["type"] == "metric" for e in events)
    assert not telemetry.enabled()  # main() shuts the pipeline down


def test_run_json_stdout_stays_machine_readable_with_logging(tmp_path,
                                                             capsys):
    stream = tmp_path / "events.jsonl"
    assert main(["run", "fig2", "--scale", "smoke", "--json",
                 "--verbosity", "debug", "--telemetry", str(stream)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # logs must not pollute stdout
    assert payload["experiment_id"] == "fig2"
    assert "recording telemetry to" in captured.err


def test_run_quiet_verbosity_suppresses_log_lines(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    assert main(["run", "fig2", "--scale", "smoke", "--verbosity", "quiet",
                 "--telemetry", str(stream)]) == 0
    assert "recording telemetry to" not in capsys.readouterr().out


def _write_stream(path):
    telemetry.configure(jsonl=str(path))
    with telemetry.span("trial", trial_id="t/0"):
        with telemetry.span("inject", successes=4):
            pass
        with telemetry.span("train", final_accuracy=0.5, epochs_run=2,
                            collapsed=False):
            pass
    telemetry.count("inject.attempts", 4)
    telemetry.shutdown()


def test_telemetry_subcommand_text(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    _write_stream(stream)
    assert main(["telemetry", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "== time by phase" in out
    assert "== flip -> outcome (per trial) ==" in out
    assert "t/0" in out


def test_telemetry_subcommand_prometheus(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    _write_stream(stream)
    assert main(["telemetry", str(stream), "--format", "prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_inject_attempts counter" in out
    assert 'repro_span_count{span="trial"} 1' in out


def test_telemetry_subcommand_chrome_to_output(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    export = tmp_path / "trace.json"
    _write_stream(stream)
    assert main(["telemetry", str(stream), "--format", "chrome",
                 "--output", str(export)]) == 0
    assert "wrote chrome export" in capsys.readouterr().out
    trace = json.loads(export.read_text())
    # skip the process/thread label metadata rows the exporter prepends
    assert [e["name"] for e in trace["traceEvents"]
            if e["ph"] != "M"] == ["trial", "inject", "train"]


def test_telemetry_subcommand_json_summary(tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    _write_stream(stream)
    assert main(["telemetry", str(stream), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"][0]["trial_id"] == "t/0"
    assert payload["metrics"]["inject.attempts"]["value"] == 4


def test_telemetry_subcommand_missing_stream(tmp_path, capsys):
    assert main(["telemetry", str(tmp_path / "absent.jsonl")]) == 1
    assert "no telemetry events" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["serve", "--shard-size", "0"], "--shard-size must be positive"),
    (["serve", "--max-active", "0"], "--max-active must be positive"),
    (["serve", "--poll", "-1"], "--poll must be positive"),
    (["serve", "--lease-ttl", "0"], "--lease-ttl must be positive"),
    (["serve", "--lease-ttl", "-3"], "--lease-ttl must be positive"),
    (["watch", "journal.jsonl", "--interval", "-1"],
     "--interval must be positive"),
    (["watch", "--fleet", "ROOT", "--interval", "0"],
     "--interval must be positive"),
    (["fleet", "ROOT", "--interval", "-1"], "--interval must be positive"),
])
def test_non_positive_service_setting_is_a_usage_error(tmp_path, capsys,
                                                       argv, message):
    """Refused with one line on stderr before anything starts: no store,
    no worker, no frame."""
    root = tmp_path / "root"
    argv = [str(root) if arg == "ROOT" else arg for arg in argv]
    if argv[0] == "serve":
        argv += ["--root", str(root)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert message in captured.err
    assert captured.out == ""
    assert not root.exists()
