"""EXPERIMENTS.md generator.

Stitches archived experiment outputs (``benchmarks/results/*.txt``/``.json``)
together with the paper's published values (:mod:`repro.analysis.paper_reference`)
and automatic shape verdicts into the EXPERIMENTS.md deliverable.

Usage::

    python -m repro.experiments.report            # writes ./EXPERIMENTS.md
    python -m repro.experiments.report --results benchmarks/results \
        --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import json
import pathlib

from .. import telemetry
from ..analysis import paper_reference as ref
from ..analysis.campaign import CampaignStats

#: (experiment id, paper artefact, one-line expected shape) in paper order.
CATALOG: list[tuple[str, str, str]] = [
    ("table4", "Table IV",
     "N-EV incidence rises ~proportionally with flip count: <1% at 1 flip "
     "to ~100% at 1000; VGG16 least affected."),
    ("table5", "Table V",
     "A majority of single-bit-flip trainings restart with NO change in "
     "accuracy (deterministic training makes equality exact)."),
    ("table6", "Table VI",
     "Multi-bit DRAM masks on ResNet50: accuracy mostly preserved; "
     "occasional N-EV when the mask lands on high exponent bits."),
    ("table7", "Table VII",
     "Same rising N-EV shape at fp16/fp32; at 1000 flips lower precisions "
     "collapse slightly less than fp64 (smaller exponent range)."),
    ("table8", "Table VIII",
     "Unlike training, *prediction* degrades with flips; degradation is "
     "worse at lower precision; ResNet most N-EV-prone."),
    ("fig2", "Fig 2",
     "Training collapses only when the injected bit range includes the "
     "exponent's most-significant bit (the single critical bit)."),
    ("fig3", "Fig 3",
     "With the exponent MSB excluded, resumed accuracy curves track the "
     "baseline at every flip rate (1..1000)."),
    ("fig4", "Fig 4",
     "1000 flips confined to one AlexNet layer: first-layer injection "
     "dips hardest then recovers; middle/last barely register."),
    ("fig5", "Fig 5",
     "The same flip sequence replayed at the equivalent layer of the other "
     "frameworks is absorbed — no degradation."),
    ("fig6", "Fig 6",
     "Weight-difference box plots after resume: first-layer injection "
     "leaves the widest spread; middle layer absorbs most."),
    ("fig7", "Fig 7",
     "Scaling-factor corruption degrades accuracy along both axes "
     "(factor, #weights); tens of scaled weights can halve accuracy."),
    ("churn_study", "Table VIII extension (unnumbered)",
     "Prediction churn rises earlier and faster than the accuracy drop — "
     "a more sensitive inference-time SDC signal."),
    ("bit_sensitivity", "Fig 2 extension (unnumbered)",
     "Per-bit collapse profile: exponent MSB collapses 100%; sign and "
     "mantissa bits 0%; lower exponent bits interpolate."),
    ("runtime_equivalence", "SSIV-B methodology validation (unnumbered)",
     "Corrupting the checkpoint file and flipping the same bits in the "
     "live model produce bit-identical continuations."),
    ("determinism_study", "SSV-A3 / Code 1 (unnumbered)",
     "Code 1 recipe => bit-identical runs; Horovod fusion enabled => "
     "nondeterministic runs."),
    ("stencil_study", "SSVI-5 (unnumbered extension)",
     "Jacobi solver self-corrects bounded corruption; exponent/NaN "
     "corruption needs far more sweeps or collapses."),
    ("ablation_nan_retry", "ablation (DESIGN.md SS6)",
     "The paper's NaN/Inf retry alone does NOT prevent fp32 collapses "
     "(finite ~1e38 values); an extreme-value guard does."),
    ("ablation_scrub", "ablation (paper SSVI-1)",
     "Scrubbing N-EVs from the corrupted checkpoint before restart "
     "prevents the collapse."),
    ("ablation_optimizer_state", "ablation (Fig 3b note)",
     "Resume with optimizer state is bit-identical to the uninterrupted "
     "run; without it, the restart diverges."),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.experiments.report`` from the archived
experiment outputs in ``benchmarks/results/`` (regenerate one with
``repro-experiments run <id> --scale tiny > benchmarks/results/<id>.txt``,
and its ``--json`` output as ``<id>.json``).

**How to read this file.** Absolute numbers are *not* comparable to the
paper: the paper ran full-width models on real CIFAR-10 across Summit GPU
nodes with 250 trainings per cell; this reproduction runs width-scaled
models on a synthetic dataset on one CPU (see DESIGN.md §2 for every
substitution).  What is compared is the *shape* of each result — who
degrades, what rises, where the cliff is.  Each section lists the paper's
expected shape, the paper's own numbers where the text gives them, and the
measured output.

**Scale caveats.** At reduced scale two artefacts are visible and expected:
(1) N-EV incidence saturates faster than the paper's because 10-1000 flips
hit a far larger *fraction* of a width-scaled model's weights; (2) accuracy
is quantized in 1% steps by the 100-image test set, so comparisons are
noisier than the paper's 10k-image evaluation.  Table V therefore uses the
"accuracy at restart" reading of RWC (first post-restart epoch) — comparing
after the full remaining schedule instead conflates flip absorption with
chaotic amplification of training dynamics, which at this scale drives RWC
to zero regardless of flip severity (see
``repro/experiments/table5_single_bitflip.py``).

**Campaign engine.** `table5`, `table6`, and `fig3` run on the journaled
campaign engine (`repro/experiments/runner.py`): trials fan out over
`--workers` processes, every trial is appended to a `--journal` JSONL file,
and a killed campaign continues with `--resume` without re-running
journaled trials::

    repro-experiments run table5 --scale tiny --workers 4 \\
        --journal /tmp/table5.jsonl
    repro-experiments run table5 --scale tiny --workers 4 \\
        --journal /tmp/table5.jsonl --resume   # after a kill

The same campaigns can run as a *service* (`docs/serve.md`): every
harness now describes its trial grid as a canonical `CampaignSpec`
document, and `repro-experiments serve` schedules submitted specs as
lease-guarded shards across any number of workers, with crash-safe
`kill -9` recovery and journal records bit-identical to the local run::

    repro-experiments serve --root /tmp/campaigns --port 8712 --workers 2
    repro-experiments submit fig3 --url http://127.0.0.1:8712 \\
        --scale tiny --wait --results /tmp/fig3_results.jsonl

Sections below report the measured campaign throughput
(trials/s, retries, timeouts) where the archived result recorded one.

**Outcome columns.** Wherever a section's table carries an outcome column
(`fig5`'s per-layer verdict, the stencil study's outcome/detail pair) or a
campaign summary lists outcome counts, the labels come from the one shared
classifier in `repro/health/outcome.py` — the
`masked`/`degraded`/`collapsed`/`crashed` taxonomy mapped onto the paper's
RWC (Table V), visible degradation (Fig. 7/Table VIII), N-EV collapse
(Table IV/Fig. 2), and infrastructure-failure (§V-A) observations — not
from per-script logic.  The campaign runner stamps the same verdict on
every journal record (`outcome_class`), so live monitoring
(`repro-experiments watch`) and post-hoc analysis count identically.
"""


def campaign_block(json_path: pathlib.Path) -> str:
    """One line of campaign throughput stats, if the archive recorded any."""
    if not json_path.exists():
        return ""
    try:
        campaign = json.loads(json_path.read_text()).get("campaign")
    except json.JSONDecodeError:
        return ""
    if not campaign:
        return ""
    return f"**Campaign.** {CampaignStats.from_dict(campaign).summary()}"


def telemetry_block(jsonl_path: pathlib.Path, top: int = 3) -> str:
    """The telemetry breakdown for one archived campaign, if recorded.

    Archives record the stream as ``<experiment id>.telemetry.jsonl`` next
    to the ``.txt``/``.json`` outputs (``repro-experiments run ...
    --telemetry`` writes it).
    """
    if not jsonl_path.exists():
        return ""
    events = telemetry.load_events(str(jsonl_path))
    if not events:
        return ""
    rendered = telemetry.CampaignTelemetry(events).render(top=top)
    return "**Telemetry.**\n\n```text\n" + rendered.strip() + "\n```"


def paper_numbers_block(experiment_id: str) -> str:
    """A compact rendering of the paper's own values, where recorded."""
    if experiment_id == "table4":
        lines = ["Paper values (N-EV % at 1/10/100/1000 flips, 250 trainings):",
                 ""]
        for (fw, model), vals in ref.TABLE4_NEV_PERCENT.items():
            lines.append(
                f"- {fw}/{model}: "
                + " / ".join(f"{vals[k]}%" for k in (1, 10, 100, 1000))
            )
        return "\n".join(lines)
    if experiment_id == "table5":
        lines = ["Paper values (RWC %):", ""]
        for (model, fw), val in ref.TABLE5_RWC_PERCENT.items():
            lines.append(f"- {model}/{fw}: {val}%")
        return "\n".join(lines)
    if experiment_id == "table7":
        lines = ["Paper values (N-EV % at 1/10/100/1000 flips, Chainer):", ""]
        for (bits, model), vals in ref.TABLE7_NEV_PERCENT.items():
            lines.append(
                f"- fp{bits}/{model}: "
                + " / ".join(f"{vals[k]}%" for k in (1, 10, 100, 1000))
            )
        return "\n".join(lines)
    if experiment_id == "table8":
        lines = ["Paper values (prediction % at 0/1/10/100/1000 flips; "
                 "'collapse' = all 10 predictions hit N-EVs):", ""]
        for (bits, model), vals in ref.TABLE8_PREDICTION.items():
            rendered = " / ".join(
                "collapse" if vals[k] is None else f"{vals[k]}"
                for k in (0, 1, 10, 100, 1000)
            )
            lines.append(f"- fp{bits}/{model}: {rendered}")
        return "\n".join(lines)
    if experiment_id == "table6":
        lines = ["Paper values (AvgI-Acc %, N-EV count per 10 trainings):",
                 ""]
        for mask, cells in ref.TABLE6_MASKS.items():
            rendered = ", ".join(
                f"{fw}={acc}" + (f"({nev})" if nev else "")
                for fw, (acc, nev) in cells.items()
            )
            lines.append(f"- mask {mask}: {rendered}")
        return "\n".join(lines)
    if experiment_id == "fig2":
        return ("Paper: 170 trainings per range, 1000 flips each; collapse "
                "occurs only when the range includes the exponent MSB "
                "(probability 1 in 64 per random 64-bit flip).")
    if experiment_id == "fig7":
        return (f"Paper: baseline accuracy {ref.FIG7_BASELINE_ACCURACY}; "
                "modifying 10 values with scaling factor 4500 roughly "
                "halves accuracy.")
    return ""


def build_report(results_dir: pathlib.Path) -> str:
    """Assemble the full EXPERIMENTS.md text from archived results."""
    sections = [HEADER]
    for experiment_id, artefact, shape in CATALOG:
        txt_path = results_dir / f"{experiment_id}.txt"
        json_path = results_dir / f"{experiment_id}.json"
        sections.append(f"\n## {artefact} — `{experiment_id}`\n")
        sections.append(f"**Expected shape.** {shape}\n")
        paper_block = paper_numbers_block(experiment_id)
        if paper_block:
            sections.append(paper_block + "\n")
        if txt_path.exists():
            scale = "?"
            if json_path.exists():
                try:
                    scale = json.loads(json_path.read_text()).get("scale", "?")
                except json.JSONDecodeError:
                    pass
            sections.append(f"**Measured** (scale `{scale}`):\n")
            sections.append("```text")
            sections.append(txt_path.read_text().strip())
            sections.append("```\n")
            campaign = campaign_block(json_path)
            if campaign:
                sections.append(campaign + "\n")
            tele = telemetry_block(
                results_dir / f"{experiment_id}.telemetry.jsonl"
            )
            if tele:
                sections.append(tele + "\n")
        else:
            sections.append(
                "*(no archived result — run "
                f"`repro-experiments run {experiment_id} --scale tiny "
                f"> benchmarks/results/{experiment_id}.txt`)*\n"
            )
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI: write EXPERIMENTS.md from the archived benchmark outputs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Generate EXPERIMENTS.md from archived bench results.",
    )
    parser.add_argument("--results", default="benchmarks/results")
    parser.add_argument("--output", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    results_dir = pathlib.Path(args.results)
    report = build_report(results_dir)
    pathlib.Path(args.output).write_text(report, encoding="utf-8")
    archived = len(list(results_dir.glob("*.txt"))) if results_dir.exists() \
        else 0
    print(f"wrote {args.output} ({archived} archived results embedded)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
