"""Integration tests: every table/figure harness runs at smoke scale and
produces results with the right structure (and, where cheap to check, the
paper's qualitative shape)."""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import BaselineCache, SCALES


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    # module-scoped cache shared by all harness tests
    return BaselineCache(str(tmp_path_factory.mktemp("exp_cache")))


def test_registry_covers_all_tables_and_figures():
    expected = {"table4", "table5", "table6", "table7", "table8",
                "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
    assert expected <= set(EXPERIMENTS)


def test_unknown_experiment():
    with pytest.raises(ValueError):
        run_experiment("table99")


class TestTableHarnesses:
    def test_table4_structure_and_shape(self, cache):
        result = run_experiment(
            "table4", scale="smoke", cache=cache,
            frameworks=("chainer_like",), models=("alexnet",),
            bitflips=(1, 1000),
        )
        assert result.experiment_id == "table4"
        assert len(result.rows) == 2
        one_flip_pct = result.rows[0][3]
        thousand_pct = result.rows[1][3]
        # paper shape: incidence rises with flip count
        assert thousand_pct >= one_flip_pct
        assert thousand_pct == 100.0
        assert "Table IV" in result.rendered

    def test_table5_structure(self, cache):
        result = run_experiment(
            "table5", scale="smoke", cache=cache,
            frameworks=("chainer_like",), models=("alexnet",),
        )
        assert result.rows[0][0] == "alexnet"
        rwc, pct = result.rows[0][2], result.rows[0][3]
        assert 0 <= rwc <= SCALES["smoke"].trainings
        assert 0.0 <= pct <= 100.0

    def test_table6_structure(self, cache):
        result = run_experiment(
            "table6", scale="smoke", cache=cache,
            frameworks=("chainer_like",), model="alexnet",
            masks=((3, "10001010"),),
        )
        assert result.rows[0][:2] == [0, "00000000"]  # error-free row
        assert result.rows[1][:2] == [3, "10001010"]

    def test_table7_structure(self, cache):
        result = run_experiment(
            "table7", scale="smoke", cache=cache, models=("alexnet",),
            bitflips=(1, 1000), precisions=("float16",),
        )
        assert len(result.rows) == 2
        assert result.rows[1][2] >= result.rows[0][2]

    def test_table8_structure_and_shape(self, cache):
        result = run_experiment(
            "table8", scale="smoke", cache=cache, models=("alexnet",),
            bitflips=(0, 1000), precisions=("float32",),
        )
        assert len(result.rows) == 2
        assert result.rows[0][0] == 0
        # the zero-flip row must be a plain accuracy with no N-EV marker
        assert "(" not in result.rows[0][1]


class TestFigureHarnesses:
    def test_fig2_critical_bit_shape(self, cache):
        """The paper's central Figure-2 finding must reproduce even at smoke
        scale: collapse iff the range includes the exponent MSB."""
        result = run_experiment(
            "fig2", scale="smoke", cache=cache,
            ranges=((1, 1), (9, 31)),
        )
        by_range = {(row[0], row[1]): row[5] for row in result.rows}
        assert by_range[(1, 1)] == 100.0  # exponent MSB only: collapses
        assert by_range[(9, 31)] == 0.0  # mantissa only: survives

    def test_fig3_structure(self, cache):
        result = run_experiment(
            "fig3", scale="smoke", cache=cache,
            pairs=(("chainer_like", "alexnet"),), bitflips=(1, 1000),
        )
        curves = result.extra["curves"]["chainer_like/alexnet"]
        assert set(curves) == {"baseline", "1 flips", "1000 flips"}
        for series in curves.values():
            assert len(series) >= 1

    def test_fig3_probed_campaign_is_bit_identical(self, cache, tmp_path):
        """Acceptance gate: enabling health probes + the classifier changes
        no training byte — journaled curves match the unprobed campaign,
        and every record carries a taxonomy outcome."""
        import json

        from repro.health import OUTCOMES

        journals = {}
        for flag in (False, True):
            journal = str(tmp_path / f"probe_{flag}.jsonl")
            run_experiment("fig3", scale="smoke", cache=cache,
                           pairs=(("chainer_like", "alexnet"),),
                           bitflips=(1,), journal=journal, health_probe=flag)
            with open(journal) as handle:
                journals[flag] = [json.loads(line) for line in handle]
        curves = {flag: {r["trial_id"]: r["outcome"]["curve"]
                         for r in records}
                  for flag, records in journals.items()}
        assert curves[False] == curves[True]
        for records in journals.values():
            assert all(r["outcome_class"] in OUTCOMES for r in records)

    def test_fig4_structure(self, cache):
        result = run_experiment("fig4", scale="smoke", cache=cache)
        curves = result.extra["curves"]
        assert set(curves) == {"baseline", "first layer", "middle layer",
                               "last layer"}
        assert result.extra["layers"]["first"] == "conv1"

    def test_fig5_equivalent_bits_replayed(self, cache):
        result = run_experiment("fig5", scale="smoke", cache=cache,
                                targets=("torch_like",))
        assert "torch_like" in result.extra["curves"]
        assert result.extra["source"] == "chainer_like"
        # curves exist for all three injected layers
        assert len(result.extra["curves"]["torch_like"]) == 4

    def test_fig6_structure(self, cache):
        result = run_experiment("fig6", scale="smoke", cache=cache)
        assert len(result.rows) == 3
        labels = [row[0] for row in result.rows]
        assert labels == ["first", "middle", "last"]
        for row in result.rows:
            assert row[2] > 0  # some weights changed

    def test_fig7_shape(self, cache):
        result = run_experiment(
            "fig7", scale="smoke", cache=cache, model="alexnet",
            factors=(1.5, 4500.0), weight_counts=(1, 100),
        )
        grid = np.array(result.extra["grid"])
        assert grid.shape == (2, 2)
        baseline = result.extra["baseline_accuracy"]
        # heavy corruption cannot beat baseline by a wide margin
        heavy = grid[1, 1]
        if heavy == heavy:  # not collapsed
            assert heavy <= baseline + 0.35


class TestAblations:
    def test_nan_retry_guard_prevents_collapse(self, cache):
        result = run_experiment(
            "ablation_nan_retry", scale="smoke", cache=cache,
            bitflips=(1000,),
        )
        by_label = {row[1]: row[4] for row in result.rows}
        assert by_label["no + extreme guard"] < by_label["yes"]

    def test_scrub_reduces_collapse(self, cache):
        result = run_experiment("ablation_scrub", scale="smoke", cache=cache)
        raw = next(r for r in result.rows if r[0] == "raw")
        scrubbed = next(r for r in result.rows if r[0] == "scrubbed")
        assert scrubbed[2] <= raw[2]
        assert scrubbed[4] > 0  # something was scrubbed

    def test_optimizer_state_determinism(self, cache):
        result = run_experiment("ablation_optimizer_state", scale="smoke",
                                cache=cache)
        with_opt = next(r for r in result.rows if r[0] == "yes")
        assert with_opt[4] == "bit-identical"


class TestDeterminismStudy:
    def test_code1_recipe_is_bit_identical(self, cache):
        frameworks = ("chainer_like", "torch_like", "tf_like")
        result = run_experiment("determinism_study", scale="smoke",
                                cache=cache,
                                frameworks=frameworks)
        verdicts = {(row[0], row[1]): row[4] for row in result.rows}
        for framework in frameworks:
            assert verdicts[(framework, "fusion off (Code 1)")] == \
                "bit-identical"

    def test_fusion_breaks_determinism(self, cache):
        result = run_experiment("determinism_study", scale="smoke",
                                cache=cache,
                                frameworks=("tf_like",))
        verdicts = {row[1]: row[4] for row in result.rows}
        assert verdicts["fusion on"] == "nondeterministic"


class TestStencilStudy:
    def test_self_correction_contrast(self, cache):
        result = run_experiment("stencil_study", scale="smoke", cache=cache)
        # rows now carry the shared taxonomy outcome plus a solver detail
        verdicts = {row[0]: (row[3], row[4]) for row in result.rows}
        assert verdicts["clean restart"] == ("masked", "recovered")
        assert verdicts["mantissa flips (first_bit=12)"] == ("masked",
                                                             "recovered")
        # exponent corruption is at best still recovering after the budget
        outcome, detail = verdicts["exponent flips (bits 2-11)"]
        assert (outcome, detail) in (("degraded", "recovering"),
                                     ("degraded", "degraded"),
                                     ("collapsed", "non-finite residual"))


class TestBitSensitivity:
    def test_exponent_msb_is_the_critical_bit(self, cache):
        result = run_experiment("bit_sensitivity", scale="smoke",
                                cache=cache, bits=(0, 1, 31))
        by_bit = {row[0]: (row[1], row[4]) for row in result.rows}
        assert by_bit[1] == ("exponent[0]", 100.0)
        assert by_bit[0][1] == 0.0   # sign
        assert by_bit[31][1] == 0.0  # mantissa LSB


class TestChurnStudy:
    def test_churn_monotone_and_exceeds_accuracy_drop(self, cache):
        result = run_experiment("churn_study", scale="smoke", cache=cache,
                                bitflips=(1, 10, 1000))
        rows = {row[0]: row for row in result.rows}
        assert rows[0][3] == 0.0  # clean model churns nothing
        assert rows[1000][3] >= rows[1][3]  # more flips, no less churn
        heavy = rows[1000]
        if isinstance(heavy[3], (int, float)):
            clean_acc = rows[0][1]
            accuracy_drop = clean_acc - (heavy[1] if
                                         isinstance(heavy[1], (int, float))
                                         else 0)
            assert heavy[3] >= accuracy_drop - 1e-9


class TestEnvironment:
    def test_report_renders(self, cache):
        result = run_experiment("environment", scale="tiny", cache=cache)
        assert "Table II analog" in result.rendered
        assert "Restart epoch" in result.rendered
        assert any("numpy" in str(row[0]) for row in result.rows)


class TestRuntimeEquivalence:
    def test_checkpoint_equals_runtime_injection(self, cache):
        result = run_experiment("runtime_equivalence", scale="smoke",
                                cache=cache, bitflips=(1, 100, 1000))
        assert [row[0] for row in result.rows] == [1, 100, 1000]
        for row in result.rows:
            assert row[1] == row[2] == row[0]  # all replayed in memory
            assert row[3] == "identical"
            assert row[4] == "identical"
