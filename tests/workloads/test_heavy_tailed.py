"""heavy_tailed: presets, validation, size clamping, end-to-end runs."""

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.core.workload import WorkloadGenerator
from repro.des import StreamFactory
from repro.workloads import create_workload_model
from repro.workloads.heavy_tailed import PRESETS

RUN = RunConfig(batches=3, batch_time=10.0, warmup_batches=1, seed=51)


def heavy_params(**overrides):
    base = dict(
        db_size=1000, min_size=4, max_size=12, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=1.0,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
        workload_model="heavy_tailed",
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestValidation:
    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="oltp_tail"):
            create_workload_model(
                heavy_params(workload_spec={"preset": "bogus"})
            )

    def test_presets_are_complete_parameterizations(self):
        for preset in PRESETS:
            model = create_workload_model(
                heavy_params(workload_spec={"preset": preset})
            )
            assert model.think_dist in ("lognormal", "pareto")
            assert model.size_dist in ("lognormal", "pareto")

    def test_explicit_keys_override_the_preset(self):
        model = create_workload_model(heavy_params(workload_spec={
            "preset": "web_sessions", "size_alpha": 2.5,
        }))
        assert model.size_alpha == 2.5
        assert model.think_cv == PRESETS["web_sessions"]["think_cv"]

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="lognormal"):
            create_workload_model(
                heavy_params(workload_spec={"size_dist": "weibull"})
            )

    def test_pareto_shape_must_have_finite_mean(self):
        with pytest.raises(ValueError, match="> 1"):
            create_workload_model(heavy_params(workload_spec={
                "size_dist": "pareto", "size_alpha": 1.0,
            }))

    def test_size_cap_bounded_by_the_database(self):
        with pytest.raises(ValueError, match="size_cap"):
            create_workload_model(
                heavy_params(workload_spec={"size_cap": 100_000})
            )


class TestSizeDraws:
    def _sizes(self, spec, n=2000, seed=9):
        params = heavy_params(workload_spec=spec)
        model = create_workload_model(params)
        generator = model.build_generator(StreamFactory(seed))
        return [
            len(generator.new_transaction(terminal_id=0).read_set)
            for _ in range(n)
        ]

    def test_sizes_stay_within_one_and_the_cap(self):
        sizes = self._sizes({"size_dist": "pareto", "size_alpha": 1.2,
                             "size_cap": 64})
        assert min(sizes) >= 1
        assert max(sizes) <= 64

    def test_lognormal_sizes_center_on_the_classic_mean(self):
        # Mean parameterization: (min_size+max_size)/2 = 8, mild tail.
        sizes = self._sizes({"size_dist": "lognormal", "size_cv": 0.5},
                            n=20_000)
        assert sum(sizes) / len(sizes) == pytest.approx(8.0, rel=0.05)

    def test_draws_differ_from_the_uniform_generator(self):
        params = heavy_params()
        uniform = WorkloadGenerator(
            params.with_changes(workload_model="closed_classic"),
            StreamFactory(9),
        )
        heavy = self._sizes({"size_cv": 2.0}, n=64)
        classic = [len(uniform.spec()[0]) for _ in range(64)]
        assert heavy != classic

    def test_sizes_are_the_draw_size_hook_on_the_size_stream(self):
        spec = {"size_dist": "pareto", "size_alpha": 1.5}
        model = create_workload_model(heavy_params(workload_spec=spec))
        rng = StreamFactory(9).stream("workload.size")
        want = [model.draw_size(rng, 4, 12) for _ in range(200)]
        assert self._sizes(spec, n=200) == want
        # The paper's models keep the uniform draw on the same stream.
        classic = create_workload_model(
            heavy_params(workload_model="closed_classic")
        )
        rng = StreamFactory(9).stream("workload.size")
        uniform = StreamFactory(9).stream("workload.size")
        assert [classic.draw_size(rng, 4, 12) for _ in range(50)] == [
            uniform.uniform_int(4, 12) for _ in range(50)
        ]

    def test_object_draws_reuse_the_base_streams(self):
        # Only the size draw changes; hotspot skew composes unchanged.
        sizes = self._sizes({"size_cv": 2.0})
        params = heavy_params(hot_fraction=0.1, hot_access_prob=0.9,
                              workload_spec={"size_cv": 2.0})
        model = create_workload_model(params)
        generator = model.build_generator(StreamFactory(9))
        hot_objects = params.db_size * 0.1
        hot = total = 0
        for _ in range(500):
            tx = generator.new_transaction(terminal_id=0)
            total += len(tx.read_set)
            hot += sum(1 for obj in tx.read_set if obj < hot_objects)
        assert hot / total > 0.5  # ~0.9 requested, far above uniform 0.1
        assert sizes  # the unskewed draw stream was valid too


class TestEndToEnd:
    def test_presets_run_under_every_paper_algorithm(self):
        for algorithm in ("blocking", "immediate_restart", "optimistic"):
            result = run_simulation(
                heavy_params(workload_spec={"preset": "oltp_tail"}),
                algorithm, run=RUN,
            )
            assert result.totals["commits"] > 0

    def test_closed_loop_totals_stay_classic_shaped(self):
        # heavy_tailed is a closed model: no open-system totals block.
        result = run_simulation(heavy_params(), "blocking", run=RUN)
        assert "open_system" not in result.totals
