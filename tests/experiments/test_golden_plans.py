"""Golden trial plans of the flip campaigns (fig3, table5, table6).

``data/flip_plans.json`` records the plans these campaigns built before
their harnesses were merged into one trial body.  A plan is the campaign's
whole contract with its journal: trial ids are the resume keys and payloads
fully determine outcomes, so a refactor of the harnesses must rebuild every
plan byte for byte — same ids, same payloads, same key order.  The fixture
keeps each trial's id and kind in the clear and its payload as the SHA-256
of its JSON text.

The baseline cache is a stub with fixed checkpoint paths and curves, so no
training runs and the fixture does not depend on the host.  The fixture is
frozen: a mismatch means the plan changed, not that the file is stale.
To write what the plans build now (to diff against the fixture), run::

    PYTHONPATH=src python -m tests.experiments.test_golden_plans OUT.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
import zlib

import pytest

from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import SCALES, Baseline
from repro.serve import CampaignSpec

FIXTURE = pathlib.Path(__file__).parent / "data" / "flip_plans.json"

#: the scale ``perfbench`` trains its ``bs1`` pair at
BS1_SCALE = dataclasses.replace(SCALES["smoke"], name="perfbench_bs1",
                                batch_size=1)

FLAGS = {"engine": "scalar", "health_probe": True,
         "validate_checkpoints": True}

SPECS = {
    "fig3/default": CampaignSpec(kind="fig3", scale="smoke"),
    "fig3/custom": CampaignSpec(
        kind="fig3", scale="smoke", seed=7,
        params={"pairs": [["torch_like", "vgg16"], ["tf_like", "resnet50"]],
                "bitflips": [10, 100], "trainings": 3}, **FLAGS),
    "fig3/max_trials": CampaignSpec(
        kind="fig3", scale="smoke", seed=7,
        params={"bitflips": [1000]}, max_trials=4),
    "table5/default": CampaignSpec(kind="table5", scale="smoke"),
    "table5/custom": CampaignSpec(
        kind="table5", scale="smoke", seed=3,
        params={"frameworks": ["tf_like", "chainer_like"],
                "models": ["alexnet"]}, **FLAGS),
    "table5/max_trials": CampaignSpec(
        kind="table5", scale="smoke", seed=3,
        params={"models": ["vgg16"]}, max_trials=3),
    "table6/default": CampaignSpec(kind="table6", scale="smoke"),
    "table6/custom": CampaignSpec(
        kind="table6", scale="smoke", seed=11,
        params={"frameworks": ["torch_like"], "model": "vgg16",
                "masks": [[4, "01101010"], [6, "11101101"]],
                "trainings": 3}, **FLAGS),
    "table6/max_trials": CampaignSpec(
        kind="table6", scale="smoke", seed=11,
        params={"masks": [[5, "11110001"]]}, max_trials=5),
}


class StubCache:
    """A baseline cache that trains nothing: every spec maps to a fixed
    checkpoint path and a curve derived from its cache key."""

    def get(self, spec) -> Baseline:
        key = spec.cache_key()
        salt = zlib.crc32(key.encode())
        epochs = spec.scale.total_epochs
        curve = [((salt + 7 * epoch) % 100) / 100.0
                 for epoch in range(epochs)]
        return Baseline(
            spec=spec, checkpoint_path=f"/baselines/{key}/checkpoint.h5",
            final_path=f"/baselines/{key}/final.h5", accuracy_curve=curve,
            resumed_curve=curve[spec.scale.checkpoint_epoch:],
            final_accuracy=curve[-1])


def _plan(tasks) -> list[list[str]]:
    """``[trial_id, kind, payload digest]`` per task; ``json.dumps`` keeps
    insertion order, so the digest covers the payload's key order too."""
    return [[task.trial_id, task.kind,
             hashlib.sha256(json.dumps(task.payload).encode()).hexdigest()]
            for task in tasks]


def build_plans() -> dict[str, list[list[str]]]:
    """Every recorded case's plan, built against the stub cache."""
    cache = StubCache()
    plans = {name: _plan(spec.build_tasks(cache))
             for name, spec in SPECS.items()}
    # the call perfbench makes for its bs1 pair
    tasks, _ = fig3.build_tasks(BS1_SCALE, 5, [("tf_like", "resnet50")],
                                (1,), 16, cache)
    plans["perfbench/bs1"] = _plan(tasks)
    return plans


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list[str]]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def plans() -> dict[str, list[list[str]]]:
    return build_plans()


def test_fixture_covers_every_case(golden, plans):
    assert sorted(golden) == sorted(plans)


@pytest.mark.parametrize("case", [*SPECS, "perfbench/bs1"])
def test_plan_is_byte_identical(golden, plans, case):
    built, frozen = plans[case], golden[case]
    assert [task[0] for task in built] == [task[0] for task in frozen]
    for new, old in zip(built, frozen):
        assert new == old, f"payload of {new[0]} changed"


if __name__ == "__main__":  # pragma: no cover
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(build_plans(), out, indent=1)
        out.write("\n")
