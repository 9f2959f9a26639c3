"""Every metric the benchmark reports, with its unit.

``END_TO_END`` is what ``--trace 0`` prints and ``PER_LAYER`` what
``--trace 1`` prints; ``BENCHMARK.json`` lists the same names.
"""

#: Layer kinds of the two benchmark models (smoke ResNet-50, AlexNet).
LAYER_KINDS = ("BatchNorm2D", "Conv2D", "Dense", "Dropout", "Flatten",
               "GlobalAvgPool2D", "MaxPool2D", "ReLU")

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "cpu_s_per_trial": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    # nn: per trial, except the per-step figures
    "nn.fit_s": "s",
    "nn.steps": "count",
    "nn.step_s": "s",
    "nn.optim_s": "s",
    "nn.eval_s": "s",
    **{f"nn.{phase}.{kind}_s": "s"
       for kind in LAYER_KINDS for phase in ("fwd", "bwd")},
    # batched: per chunk, plus the marginal cost of one more trial
    "batched.load_s": "s",
    "batched.stack_s": "s",
    "batched.fit_s": "s",
    "batched.marginal_s_per_trial": "s",
    # injector, hdf5, frameworks, common: per trial
    "injector.corrupt_s": "s",
    "injector.plan_s": "s",
    "injector.apply_s": "s",
    "injector.flips": "count",
    "injector.bytes_touched": "count",
    "hdf5.opens": "count",
    "hdf5.bytes_read": "count",
    "hdf5.bytes_written": "count",
    "hdf5.open_s": "s",
    "frameworks.load_checkpoint_s": "s",
    "common.baseline_train_s": "s",
    "common.copy_s": "s",
    "common.copy_bytes": "count",
    "common.build_s": "s",
    # runner
    "runner.trial_s": "s",
    "runner.unaccounted_frac": "frac",
    "runner.forks": "count",
    "runner.fsyncs": "count",
    "runner.journal_append_s": "s",
    "runner.worker_utilization": "frac",
    "runner.worker_threads": "count",
    # serve: per campaign, except serve.claim_s (per claim) and
    # serve.shard_s (median shard)
    "serve.submit_s": "s",
    "serve.plan_s": "s",
    "serve.claim_s": "s",
    "serve.shard_s": "s",
    "serve.idle_s": "s",
    "serve.claims": "count",
    "serve.claim_contention": "count",
    "serve.lease_reclaims": "count",
    # telemetry tee per trial; atlas per campaign
    "telemetry.events": "count",
    "telemetry.tee_bytes": "count",
    "atlas.ingest_s": "s",
    "atlas.rows": "count",
    "atlas.surface_s": "s",
    # the traced run's own cost
    "trace.trials_per_s": "1/s",
    "trace.untraced_trials_per_s": "1/s",
    "trace.overhead": "x",
}
