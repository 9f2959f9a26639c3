"""Cheap campaign kinds for serve tests.

Module-level registration on purpose: workers forked from a test process
inherit both the trial-kind and plan-builder registries, exactly like the
shipped harnesses.
"""

import os
import time

from repro.experiments.runner import TrialTask, batch_trial_kind, trial_kind
from repro.serve.spec import plan_builder


@trial_kind("serve_echo")
def _echo(payload):
    return {"value": payload["value"] * 2}


@plan_builder("serve_echo")
def _echo_plan(spec, cache):
    return [TrialTask(trial_id=f"serve_echo/{spec.seed}/{index}",
                      kind="serve_echo",
                      payload={"value": index, "seed": spec.seed})
            for index in range(spec.params.get("count", 4))]


@trial_kind("serve_mark")
def _mark(payload):
    # append-mode side effect: counts executions across processes, so a
    # test can prove every trial ran exactly once
    with open(payload["marker"], "a", encoding="utf-8") as handle:
        handle.write(f"{payload['value']}\n")
    return {"value": payload["value"]}


@plan_builder("serve_mark")
def _mark_plan(spec, cache):
    return [TrialTask(trial_id=f"serve_mark/{spec.seed}/{index}",
                      kind="serve_mark",
                      payload={"value": index,
                               "marker": spec.params["marker"]})
            for index in range(spec.params.get("count", 4))]


@trial_kind("serve_hold")
def _hold(payload):
    """Blocks while the hold file exists (only for the held values) —
    lets a test freeze a worker mid-shard, then kill or cancel it."""
    if payload["value"] in payload.get("hold_values", []):
        deadline = time.monotonic() + payload.get("max_wait", 60.0)
        while os.path.exists(payload["hold_file"]):
            if time.monotonic() > deadline:
                raise RuntimeError("hold file never released")
            time.sleep(0.02)
    if payload.get("marker"):
        with open(payload["marker"], "a", encoding="utf-8") as handle:
            handle.write(f"{payload['value']}\n")
    return {"value": payload["value"]}


@plan_builder("serve_hold")
def _hold_plan(spec, cache):
    params = spec.params
    return [TrialTask(trial_id=f"serve_hold/{spec.seed}/{index}",
                      kind="serve_hold",
                      payload={"value": index,
                               "hold_file": params["hold_file"],
                               "hold_values": params.get("hold_values", []),
                               "marker": params.get("marker"),
                               "max_wait": params.get("max_wait", 60.0)})
            for index in range(params.get("count", 4))]


@trial_kind("serve_pool")
def _pool(payload):
    """``serve_hold`` after a ``delay``, leaving ``<value>.<pid>`` in the
    ``pids`` directory first.  Its footprint puts it on the worker's pool."""
    if payload.get("pids"):
        name = f"{payload['value']}.{os.getpid()}"
        with open(os.path.join(payload["pids"], name), "w",
                  encoding="utf-8"):
            pass
    time.sleep(payload.get("delay", 0.0))
    return _hold(payload)


@batch_trial_kind("serve_pool", group_key=lambda payload: "all",
                  trial_bytes=lambda payload: 1 << 20)
def _pool_batch(payloads):
    return [_pool(payload) for payload in payloads]


@plan_builder("serve_pool")
def _pool_plan(spec, cache):
    params = spec.params
    return [TrialTask(trial_id=f"serve_pool/{spec.seed}/{index}",
                      kind="serve_pool",
                      payload={"value": index,
                               "hold_file": params.get("hold_file", ""),
                               "hold_values": params.get("hold_values", []),
                               "marker": params.get("marker"),
                               "pids": params.get("pids"),
                               "delay": params.get("delay", 0.0)})
            for index in range(params.get("count", 4))]
