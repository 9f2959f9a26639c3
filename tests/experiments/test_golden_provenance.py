"""Golden flip provenance of the flip campaigns (fig3, table6).

``data/flip_provenance.json`` records, per trial, the attrs of every
``flip`` event a campaign's telemetry stream loads back as
(:func:`repro.telemetry.load_events`), in emission order: the layer, flat
index, kind, precision and bit of each applied flip, its old and new value
and their delta, and the ``trial_id`` stamp.  That is what the atlas, the
propagation join and the ``telemetry`` report read, so a change to how the
injector writes its provenance must load back to the same events byte for
byte.  Only ``attempt_id`` — the runner's stamp naming which attempt at a
trial emitted an event — is left out of the comparison.

The baselines are never trained: the cache stores each model's initial
weights as its checkpoint, so the flipped values depend on the seeded
initialisation alone, not on the host's BLAS.  The fixture is frozen: a
mismatch means the provenance changed, not that the file is stale.  To
write what the campaigns emit now (to diff against the fixture), run::

    PYTHONPATH=src python -m tests.experiments.test_golden_provenance OUT.json
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile

import pytest

from repro import telemetry
from repro.experiments import run_experiment
from repro.experiments.common import Baseline, BaselineCache, \
    build_session_model
from repro.frameworks import get_facade, set_global_determinism
from repro.nn import SGD
from repro.serve import CampaignSpec

FIXTURE = pathlib.Path(__file__).parent / "data" / "flip_provenance.json"

SPECS = {
    "fig3": CampaignSpec(kind="fig3", scale="smoke",
                         params={"bitflips": [1, 10]}),
    "table6": CampaignSpec(kind="table6", scale="smoke",
                           params={"masks": [[3, "10001010"],
                                             [6, "11101101"]]}),
}

#: stamps that name how a trial ran, not what it flipped
IGNORED = ("attempt_id",)


class UntrainedCache(BaselineCache):
    """A baseline cache whose checkpoints hold each model's initial
    weights: no training pass, so no host-dependent float rounding."""

    def _train(self, spec, ckpt: str, final: str) -> Baseline:
        facade = get_facade(spec.framework)
        set_global_determinism(spec.framework, spec.seed)
        model = build_session_model(spec)
        optimizer = SGD(lr=spec.effective_learning_rate,
                        momentum=spec.momentum)
        for path, epoch in ((ckpt, spec.scale.checkpoint_epoch),
                            (final, spec.scale.total_epochs)):
            facade.save_checkpoint(path, model, optimizer, epoch=epoch,
                                   include_optimizer=spec.include_optimizer)
        curve = [0.1] * spec.scale.total_epochs
        return Baseline(spec=spec, checkpoint_path=ckpt, final_path=final,
                        accuracy_curve=curve,
                        resumed_curve=curve[spec.scale.checkpoint_epoch:],
                        final_accuracy=curve[-1])


def provenance(spec: CampaignSpec, cache, log: str) -> dict[str, list]:
    """The decoded ``flip`` attrs of one campaign run, by trial, in
    emission order."""
    telemetry.configure(jsonl=log)
    try:
        run_experiment(spec.kind, spec=spec, cache=cache)
    finally:
        telemetry.shutdown()
    by_trial: dict[str, list] = {}
    for event in telemetry.load_events(log):
        if event.get("type") == "event" and event.get("name") == "flip":
            attrs = {key: value for key, value in event["attrs"].items()
                     if key not in IGNORED}
            by_trial.setdefault(attrs["trial_id"], []).append(attrs)
    return by_trial


def build_provenance(workdir: str) -> dict[str, dict[str, list]]:
    cache = UntrainedCache(os.path.join(workdir, "cache"))
    return {name: provenance(spec, cache,
                             os.path.join(workdir, f"{name}.jsonl"))
            for name, spec in SPECS.items()}


def canonical(value) -> str:
    # NaN-safe equality: json text, keys sorted
    return json.dumps(value, sort_keys=True, allow_nan=True)


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, list]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory) -> dict[str, dict[str, list]]:
    return build_provenance(str(tmp_path_factory.mktemp("provenance")))


def test_fixture_covers_every_case(golden, emitted):
    assert sorted(golden) == sorted(emitted) == sorted(SPECS)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_provenance_is_byte_identical(golden, emitted, case):
    built, frozen = emitted[case], golden[case]
    assert sorted(built) == sorted(frozen)
    for trial_id, flips in frozen.items():
        assert len(built[trial_id]) == len(flips), trial_id
        for new, old in zip(built[trial_id], flips):
            assert canonical(new) == canonical(old), trial_id


if __name__ == "__main__":  # pragma: no cover
    with tempfile.TemporaryDirectory() as scratch:
        built = build_provenance(scratch)
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(built, out, indent=1, sort_keys=True, allow_nan=True)
        out.write("\n")
