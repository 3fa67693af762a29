"""The workload-model registry: names, resolution, plug-in points."""

import pytest

from repro.core import SimulationParameters
from repro.workloads import (
    WorkloadModel,
    create_workload_model,
    register_workload_model,
    workload_model_names,
)
from repro.workloads import registry as registry_module


def params(**overrides):
    base = dict(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestNames:
    def test_all_four_models_registered(self):
        names = workload_model_names()
        assert names == sorted(names)
        for expected in ("closed_classic", "open_poisson",
                         "heavy_tailed", "trace"):
            assert expected in names


class TestResolution:
    """The field is the resolution rule: no alias spelling exists."""

    def test_default_is_closed_classic(self):
        assert params().workload_model == "closed_classic"
        assert create_workload_model(params()).name == "closed_classic"

    def test_explicit_model_wins(self):
        explicit = params(workload_model="heavy_tailed")
        assert create_workload_model(explicit).name == "heavy_tailed"


class TestCreate:
    def test_creates_the_resolved_model(self):
        model = create_workload_model(params())
        assert model.name == "closed_classic"
        assert not model.open_system

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            create_workload_model(params(workload_model="bogus"))

    def test_unknown_spec_keys_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown workload_spec"):
            create_workload_model(
                params(workload_spec={"bogus": 1})
            )

    def test_missing_required_option_names_the_key(self):
        with pytest.raises(ValueError, match="workload_spec\\['path'\\]"):
            create_workload_model(params(workload_model="trace"))


class TestRegisterPlugin:
    def test_third_party_model_plugs_in(self):
        @register_workload_model
        class Custom(WorkloadModel):
            name = "custom_test_only"

            def start(self, model):  # pragma: no cover - never run
                pass

        try:
            assert "custom_test_only" in workload_model_names()
            created = create_workload_model(
                params(workload_model="custom_test_only")
            )
            assert isinstance(created, Custom)
        finally:
            del registry_module._MODELS["custom_test_only"]

    def test_nameless_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_workload_model(type("Anon", (WorkloadModel,), {}))
