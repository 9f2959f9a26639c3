"""CampaignSpec: validation, serialization, and API-convention parity
with InjectorConfig (tolerant from_dict, strict replace, versioning)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.spec import (
    SPEC_VERSION,
    CampaignSpec,
    coerce_spec,
    registered_kinds,
)

from . import kinds  # noqa: F401  (registers the serve_* plan builders)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CampaignSpec(kind="fig3")
        assert spec.scale == "tiny"
        assert spec.version == SPEC_VERSION

    @pytest.mark.parametrize("overrides", [
        {"kind": ""},
        {"scale": "galactic"},
        {"seed": "42"},
        {"seed": True},
        {"engine": "quantum"},
        {"batch_trials": 0},
        {"batch_trials": "4"},
        {"trial_timeout": 0.0},
        {"retries": -1},
        {"priority": 1.5},
        {"max_trials": 0},
        {"params": {"x": float("nan")}},
        {"params": "not-a-dict"},
        {"version": SPEC_VERSION + 1},
        {"batch_trials": True},
        {"retries": True},
        {"max_trials": True},
        {"version": True},
        {"trial_timeout": True},
        {"trial_timeout": "5"},
        {"health_probe": "false"},
        {"validate_checkpoints": 1},
        {"scale": []},
    ])
    def test_rejects_bad_fields(self, overrides):
        payload = {"kind": "fig3", **overrides}
        with pytest.raises(ValueError):
            CampaignSpec(**payload)

    def test_batch_trials_defaults_to_the_runners_choice(self):
        assert CampaignSpec(kind="fig3").batch_trials is None

    def test_batch_trials_pairs_with_trial_timeout(self):
        """A chunk's deadline is its trials' summed deadlines."""
        spec = CampaignSpec(kind="fig3", batch_trials=4, trial_timeout=5)
        assert (spec.batch_trials, spec.trial_timeout) == (4, 5)

    def test_params_must_be_json_serializable(self):
        with pytest.raises(ValueError, match="JSON"):
            CampaignSpec(kind="fig3", params={"x": object()})


class TestSerialization:
    def test_round_trip(self):
        spec = CampaignSpec(kind="table6", scale="smoke", seed=7,
                            params={"masks": [[3, "10001010"]]},
                            engine="scalar", batch_trials=4,
                            health_probe=True, priority=2, max_trials=9)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_drops_foreign_keys(self):
        payload = CampaignSpec(kind="fig3").to_dict()
        payload["from_the_future"] = {"nested": True}
        spec = CampaignSpec.from_dict(payload)
        assert spec.kind == "fig3"
        assert "from_the_future" not in spec.to_dict()

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            CampaignSpec.from_dict(["fig3"])

    def test_replace_applies_and_revalidates(self):
        spec = CampaignSpec(kind="fig3")
        assert spec.replace(seed=9).seed == 9
        assert spec.replace(seed=9) is not spec
        with pytest.raises(ValueError):
            spec.replace(engine="quantum")

    def test_replace_rejects_unknown_fields(self):
        spec = CampaignSpec(kind="fig3")
        with pytest.raises(TypeError, match="sede"):
            spec.replace(sede=9)

    def test_canonical_json_is_stable_and_sorted(self):
        spec = CampaignSpec(kind="fig3", params={"b": 1, "a": 2})
        text = spec.canonical_json()
        assert text == spec.canonical_json()
        payload = json.loads(text)
        assert list(payload) == sorted(payload)


#: every field drawn independently: no combination of valid values is
#: invalid.
SPEC_PAYLOADS = st.fixed_dictionaries({
    "kind": st.sampled_from(["fig3", "table5", "table6", "custom_kind"]),
    "scale": st.sampled_from(["smoke", "tiny", "small", "paper"]),
    "seed": st.integers(-10**9, 10**9),
    "engine": st.sampled_from(["scalar", "vectorized"]),
    "batch_trials": st.one_of(st.none(), st.integers(1, 64)),
    "trial_timeout": st.one_of(st.none(),
                               st.floats(min_value=0.001, max_value=1e6)),
    "health_probe": st.booleans(),
    "validate_checkpoints": st.booleans(),
    "retries": st.integers(0, 9),
    "priority": st.integers(-100, 100),
    "max_trials": st.one_of(st.none(), st.integers(1, 10**6)),
    "params": st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(-1000, 1000), st.text(max_size=8),
                  st.lists(st.integers(0, 255), max_size=4)),
        max_size=4),
})


@given(payload=SPEC_PAYLOADS)
@settings(max_examples=80, deadline=None)
def test_spec_round_trips_through_json(payload):
    """Property: to_dict -> JSON -> from_dict is the identity, and the
    canonical form is byte-stable across the round trip."""
    spec = CampaignSpec.from_dict(payload)
    wire = json.loads(json.dumps(spec.to_dict()))
    again = CampaignSpec.from_dict(wire)
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()


class TestCoercion:
    def test_spec_passes_through_unchanged(self):
        spec = CampaignSpec(kind="fig3")
        assert coerce_spec(spec) is spec

    def test_dict_warns_deprecation(self):
        payload = CampaignSpec(kind="fig3", seed=5).to_dict()
        with pytest.warns(DeprecationWarning, match="ad-hoc payload dict"):
            spec = coerce_spec(payload)
        assert spec.seed == 5

    def test_other_types_raise(self):
        with pytest.raises(TypeError):
            coerce_spec(42)


def test_shipped_harnesses_register_plan_builders():
    assert {"fig3", "table5", "table6"} <= set(registered_kinds())


def test_build_tasks_unknown_kind():
    with pytest.raises(ValueError, match="no plan builder"):
        CampaignSpec(kind="never_registered").build_tasks()


def test_build_tasks_is_deterministic_and_capped():
    spec = CampaignSpec(kind="serve_echo", seed=3, params={"count": 7})
    first = spec.build_tasks()
    second = spec.build_tasks()
    assert [t.trial_id for t in first] == [t.trial_id for t in second]
    assert [t.payload for t in first] == [t.payload for t in second]
    assert len(first) == 7
    capped = spec.replace(max_trials=2).build_tasks()
    assert [t.trial_id for t in capped] == [t.trial_id for t in first[:2]]
