"""Fixture corpus for the domain rules: one positive and one negative
snippet (at least) per rule, linted via ``lint_source``."""

import textwrap

from repro.lint import lint_source


def findings(source, module="", select=None):
    return lint_source(textwrap.dedent(source), module=module, select=select)


def rules_hit(found):
    return {f.rule for f in found}


class TestRngPurity:
    def test_import_random_flagged_in_domain(self):
        found = findings("import random\n", module="repro.health.probe")
        assert rules_hit(found) == {"rng-purity"}

    def test_from_numpy_random_flagged(self):
        found = findings("from numpy.random import default_rng\n",
                         module="repro.telemetry.core")
        assert rules_hit(found) == {"rng-purity"}

    def test_np_random_attribute_flagged(self):
        found = findings(
            """
            import numpy as np

            def jitter(x):
                return x + np.random.normal()
            """,
            module="repro.hdf5.validate",
        )
        assert "rng-purity" in rules_hit(found)

    def test_rng_draw_method_flagged(self):
        found = findings(
            """
            def sample(rng, values):
                return rng.choice(values)
            """,
            module="repro.health.outcome",
        )
        assert rules_hit(found) == {"rng-purity"}

    def test_same_code_outside_domain_clean(self):
        found = findings("import random\n",
                         module="repro.experiments.table5")
        assert "rng-purity" not in rules_hit(found)

    def test_pure_math_in_domain_clean(self):
        found = findings(
            """
            import math

            def score(x):
                return math.isnan(x)
            """,
            module="repro.health.probe",
        )
        assert found == []


class TestForkSafety:
    def test_module_level_lock_flagged(self):
        found = findings(
            """
            import threading

            lock = threading.Lock()
            """,
            module="repro.experiments.runner",
        )
        assert rules_hit(found) == {"fork-safety"}

    def test_import_time_open_flagged(self):
        found = findings(
            'handle = open("state.h5")\n',
            module="repro.experiments.common",
        )
        assert rules_hit(found) == {"fork-safety"}

    def test_class_attribute_lock_flagged(self):
        found = findings(
            """
            import threading

            class Pool:
                guard = threading.Lock()
            """,
            module="repro.experiments.runner",
        )
        assert rules_hit(found) == {"fork-safety"}

    def test_default_arg_lock_flagged(self):
        found = findings(
            """
            import threading

            def run(guard=threading.Lock()):
                pass
            """,
            module="repro.experiments.runner",
        )
        assert rules_hit(found) == {"fork-safety"}

    def test_lowercase_mutable_module_state_flagged(self):
        found = findings("cache = {}\n", module="repro.experiments.common")
        assert rules_hit(found) == {"fork-safety"}

    def test_uppercase_registry_clean(self):
        found = findings("TRIAL_KINDS = {}\n",
                         module="repro.experiments.runner")
        assert found == []

    def test_lock_inside_function_clean(self):
        found = findings(
            """
            import threading

            def run():
                guard = threading.Lock()
                with open("x") as handle:
                    return handle, guard
            """,
            module="repro.experiments.runner",
        )
        assert found == []

    def test_same_code_outside_domain_clean(self):
        found = findings(
            """
            import threading

            lock = threading.Lock()
            """,
            module="repro.hdf5.file",
        )
        assert "fork-safety" not in rules_hit(found)


class TestViewDiscipline:
    def test_read_modify_write_roundtrip_flagged(self):
        found = findings(
            """
            def zero_bias(ds):
                data = ds.read()
                data[0] = 0.0
                ds.write(data)
            """,
        )
        assert rules_hit(found) == {"view-discipline"}
        assert "view()" in found[0].message

    def test_view_edit_clean(self):
        found = findings(
            """
            def zero_bias(ds):
                view = ds.view()
                view[0] = 0.0
            """,
        )
        assert found == []

    def test_cross_dataset_copy_clean(self):
        found = findings(
            """
            def copy(src, dst):
                data = src.read()
                dst.write(data)
            """,
        )
        assert found == []

    def test_reassigned_name_clean(self):
        found = findings(
            """
            def rebuild(ds, transform):
                data = ds.read()
                data = transform(data)
                ds.write(data)
            """,
        )
        assert found == []


class TestFloatEq:
    def test_nan_self_comparison_flagged(self):
        found = findings(
            """
            def is_number(x):
                return x == x
            """,
            module="repro.health.outcome",
        )
        assert rules_hit(found) == {"float-eq"}
        assert "isnan" in found[0].message

    def test_float_literal_equality_flagged(self):
        found = findings(
            """
            def collapsed(accuracy):
                return accuracy == 0.1
            """,
            module="repro.analysis.nev",
        )
        assert rules_hit(found) == {"float-eq"}

    def test_float_cast_equality_flagged(self):
        found = findings(
            """
            def same(a, b):
                return float(a) != b
            """,
            module="repro.experiments.common",
        )
        assert rules_hit(found) == {"float-eq"}

    def test_int_equality_clean(self):
        found = findings(
            """
            def done(epoch):
                return epoch == 20
            """,
            module="repro.health.outcome",
        )
        assert found == []

    def test_outside_domain_clean(self):
        found = findings(
            """
            def is_number(x):
                return x == x
            """,
            module="repro.hdf5.binary",
        )
        assert "float-eq" not in rules_hit(found)


class TestJournalSchema:
    def test_trialrecord_missing_status_flagged(self):
        found = findings(
            """
            def record(task):
                return TrialRecord(trial_id=task.id, kind=task.kind)
            """,
        )
        assert rules_hit(found) == {"journal-schema"}
        assert "status" in found[0].message

    def test_journal_append_missing_keys_flagged(self):
        found = findings(
            """
            def log(journal, task):
                journal.append({"trial_id": task.id, "outcome": {}})
            """,
        )
        assert rules_hit(found) == {"journal-schema"}

    def test_complete_record_clean(self):
        found = findings(
            """
            def record(task):
                full = TrialRecord(trial_id=task.id, kind=task.kind,
                                   status="ok")
                positional = TrialRecord("a", "kind", "failed")
                return full, positional
            """,
        )
        assert found == []

    def test_opaque_constructions_clean(self):
        found = findings(
            """
            def record(journal, task, fields):
                journal.append(task.record)
                return TrialRecord(**fields)
            """,
        )
        assert found == []

    def test_non_journal_append_clean(self):
        found = findings(
            """
            def collect(rows):
                rows.append({"x": 1})
            """,
        )
        assert found == []


class TestSpanDiscipline:
    def test_bare_span_call_flagged(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                span = telemetry.span("trial")
                return span
            """,
        )
        assert rules_hit(found) == {"span-discipline"}
        assert "with" in found[0].message

    def test_aliased_bare_span_flagged(self):
        found = findings(
            """
            from repro.telemetry import span

            def run():
                return span("trial")
            """,
        )
        assert rules_hit(found) == {"span-discipline"}

    def test_context_manager_span_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                with telemetry.span("trial") as span:
                    span.set(ok=True)
            """,
        )
        assert found == []

    def test_start_span_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                return telemetry.start_span("trial")
            """,
        )
        assert found == []

    def test_import_time_metric_flagged(self):
        found = findings(
            """
            from repro import telemetry

            telemetry.count("module_imports")
            """,
        )
        assert rules_hit(found) == {"span-discipline"}
        assert "import time" in found[0].message

    def test_runtime_metric_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                telemetry.count("trials")
            """,
        )
        assert found == []

class TestTracePropagation:
    def test_serve_span_outside_trace_scope_flagged(self):
        found = findings(
            """
            from repro import telemetry

            def run_shard(cid):
                with telemetry.span("serve.shard", campaign=cid):
                    pass
            """,
            module="repro.serve.scheduler",
        )
        assert rules_hit(found) == {"trace-propagation"}
        assert "trace_scope" in found[0].message

    def test_serve_span_inside_trace_scope_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run_shard(store, cid):
                with telemetry.trace_scope(store.trace(cid)):
                    with telemetry.span("serve.shard", campaign=cid):
                        pass
            """,
            module="repro.serve.scheduler",
        )
        assert found == []

    def test_aliased_trace_scope_and_span_clean(self):
        found = findings(
            """
            from repro.telemetry import span, trace_scope

            def plan(trace):
                with trace_scope(trace):
                    with span("serve.plan"):
                        pass
            """,
            module="repro.serve.scheduler",
        )
        assert found == []

    def test_non_serve_span_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                with telemetry.span("trial"):
                    pass
            """,
            module="repro.serve.scheduler",
        )
        assert found == []

    def test_same_code_outside_domain_clean(self):
        found = findings(
            """
            from repro import telemetry

            def run():
                with telemetry.span("serve.shard"):
                    pass
            """,
            module="repro.experiments.runner",
        )
        assert found == []


class TestAtlasIngestOffsets:
    def test_readlines_flagged_in_atlas(self):
        found = findings(
            """
            def load(path):
                with open(path) as handle:
                    return handle.readlines()
            """,
            module="repro.atlas.ingest",
        )
        assert rules_hit(found) == {"durable-io"}
        assert "JsonlTail" in found[0].message

    def test_open_on_jsonl_literal_flagged(self):
        found = findings(
            'records = open("journals/shard-0000.jsonl")\n',
            module="repro.atlas.store",
        )
        assert rules_hit(found) == {"durable-io"}

    def test_open_on_journal_variable_flagged(self):
        found = findings(
            """
            def scan(source):
                return open(source.journal_path)
            """,
            module="repro.atlas.ingest",
        )
        assert rules_hit(found) == {"durable-io"}

    def test_jsonltail_usage_clean(self):
        found = findings(
            """
            from ..telemetry.fleet import JsonlTail

            def scan(path, offset):
                tail = JsonlTail(path, offset=offset)
                return tail.poll_with_offsets()
            """,
            module="repro.atlas.ingest",
        )
        assert found == []

    def test_non_journal_open_clean_in_domain(self):
        found = findings(
            """
            def read_catalog(path):
                with open(path, encoding="utf-8") as handle:
                    return handle.read()
            """,
            module="repro.atlas.store",
        )
        assert found == []

    def test_same_code_outside_domain_clean(self):
        found = findings(
            """
            def load(path):
                with open(path) as handle:
                    return handle.readlines()
            """,
            module="repro.experiments.watch",
        )
        assert found == []


class TestDurableIO:
    def test_os_replace_flagged_in_repro(self):
        found = findings(
            """
            import os

            def commit(tmp, path):
                os.replace(tmp, path)
            """,
            module="repro.serve.store",
        )
        assert rules_hit(found) == {"durable-io"}
        assert "repro.durable" in found[0].message

    def test_names_imported_from_os_flagged(self):
        found = findings(
            """
            from os import O_CREAT, O_EXCL, link, open as os_open

            def grab(tmp, path):
                os_open(path, O_CREAT | O_EXCL)
                link(tmp, path)
            """,
            module="repro.experiments.common",
        )
        assert [f.rule for f in found] == ["durable-io"] * 2

    def test_excl_lock_with_ttl_still_flagged(self):
        found = findings(
            """
            import os
            import time

            def grab(path, ttl):
                if time.time() - os.stat(path).st_mtime > ttl:
                    os.unlink(path)
                return os.open(path, os.O_CREAT | os.O_EXCL)
            """,
            module="repro.serve.shards",
        )
        assert rules_hit(found) == {"durable-io"}

    def test_durable_module_exempt(self):
        found = findings(
            """
            import os

            def publish(temp, path):
                os.replace(temp, path)
            """,
            module="repro.durable",
        )
        assert found == []

    def test_outside_repro_clean(self):
        found = findings(
            """
            import os

            def swap(a, b):
                os.rename(a, b)
            """,
            module="tests.serve.test_store",
        )
        assert found == []
