"""Tests for the resource-model registry."""

import pytest

from repro.core import SimulationParameters
from repro.des import Environment, InfiniteResource, StreamFactory
from repro.resources import (
    BufferedResourceModel,
    ClassicResourceModel,
    ResourceModel,
    SkewedDisksResourceModel,
    create_resource_model,
    register_resource_model,
    resource_model_names,
)
from repro.resources import registry as registry_module


def make(name, **overrides):
    params = SimulationParameters.table2(**overrides)
    return create_resource_model(
        name, Environment(), params, StreamFactory(3)
    )


class TestRegistry:
    def test_ships_at_least_four_models(self):
        names = resource_model_names()
        assert len(names) >= 4
        assert {"classic", "buffered", "skewed_disks", "distributed"} <= set(
            names
        )
        # One configuration, one spelling: infinite resources are
        # num_cpus/num_disks of None, not a model of their own.
        assert "infinite" not in names

    def test_names_are_sorted(self):
        assert resource_model_names() == sorted(resource_model_names())

    def test_create_by_name(self):
        assert isinstance(make("classic"), ClassicResourceModel)
        assert isinstance(make("buffered"), BufferedResourceModel)
        assert isinstance(
            make("skewed_disks"), SkewedDisksResourceModel
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="classic"):
            make("no_such_model")

    def test_register_requires_name(self):
        class Nameless(ResourceModel):
            name = None

        with pytest.raises(ValueError, match="name"):
            register_resource_model(Nameless)

    def test_register_and_create_custom_model(self):
        class Custom(ClassicResourceModel):
            name = "custom_test_model"

        register_resource_model(Custom)
        try:
            assert "custom_test_model" in resource_model_names()
            assert isinstance(make("custom_test_model"), Custom)
        finally:
            del registry_module._MODELS["custom_test_model"]


class TestInterface:
    def test_classic_honors_parameter_counts(self):
        model = make("classic", num_cpus=3, num_disks=4)
        assert model.cpu.capacity == 3
        assert len(model.disks) == 4
        assert len(model.disk_fault_targets()) == 4

    def test_classic_none_counts_are_infinite(self):
        model = make("classic", num_cpus=None, num_disks=None)
        assert isinstance(model.cpu, InfiniteResource)
        assert isinstance(model.disks[0], InfiniteResource)
        # No crashable disks: the fault injector must refuse, not no-op.
        assert model.disk_fault_targets() == []

    def test_buffer_summary_default_is_none(self):
        assert make("classic").buffer_summary() is None
        assert make("skewed_disks").buffer_summary() is None
        assert make("buffered").buffer_summary() is not None

    def test_describe_resources_labels(self):
        classic = make("classic", num_cpus=1, num_disks=2)
        assert classic.describe_resources() == {
            "model": "classic", "cpus": 1, "disks": 2,
        }
        infinite = make("classic", num_cpus=None, num_disks=None)
        assert infinite.describe_resources()["cpus"] == "inf"
        buffered = make("buffered", buffer_capacity=50)
        assert buffered.describe_resources()["buffer"] == "lru:50"
        skewed = make("skewed_disks", disk_placement="striped")
        assert skewed.describe_resources()["placement"] == "striped"

    def test_engine_constructs_via_registry(self):
        from repro.core.engine import SystemModel

        model = SystemModel(
            SimulationParameters.table2(resource_model="buffered")
        )
        assert isinstance(model.physical, BufferedResourceModel)
