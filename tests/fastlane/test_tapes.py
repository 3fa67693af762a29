"""Workload tapes: draw-identity, chunking, and cross-point sharing.

A tape must replay the model-owned :class:`WorkloadGenerator`
byte-for-byte — same read sets, write sets, class tags, ids — for every
workload shape the paper uses (uniform, hotspot, multi-class mix), no
matter how the tape was grown or how many consumers share it. The
think-time and disk-pick sequences it records must be the single draws
of fresh streams, value for value, and a sweep must seed each terminal
stream once, not once per grid point.
"""

import pytest

from repro.core import RunConfig, SimulationParameters, SystemModel
from repro.core.params import TransactionClass
from repro.core.workload import WorkloadGenerator
from repro.des import StreamFactory, rng
from repro.experiments import ExperimentConfig, run_sweep
from repro.fastlane import TapeStore, WorkloadTape
from repro.fastlane.tapes import TAPE_CHUNK

PARAMS = SimulationParameters(
    db_size=200, min_size=2, max_size=8, write_prob=0.25,
    num_terms=10, mpl=5, ext_think_time=0.5,
    obj_io=0.02, obj_cpu=0.01, num_cpus=1, num_disks=2,
)
HOTSPOT = PARAMS.with_changes(hot_fraction=0.1, hot_access_prob=0.8)
MIXED = PARAMS.with_changes(workload_mix=(
    TransactionClass(
        name="small", weight=0.7, min_size=1, max_size=4, write_prob=0.1
    ),
    TransactionClass(
        name="large", weight=0.3, min_size=8, max_size=16, write_prob=0.5
    ),
))


class TestDrawIdentity:
    @pytest.mark.parametrize(
        "params", [PARAMS, HOTSPOT, MIXED],
        ids=["uniform", "hotspot", "mixed"],
    )
    def test_tape_replays_the_generator_byte_for_byte(self, params):
        reference = WorkloadGenerator(params, StreamFactory(101))
        taped = TapeStore().workload(params, 101)
        draws = 2 * TAPE_CHUNK + 10  # crosses two chunk boundaries
        for k in range(draws):
            want = reference.new_transaction(terminal_id=k % 7)
            got = taped.new_transaction(terminal_id=k % 7)
            assert got.id == want.id == k + 1
            assert got.terminal_id == want.terminal_id
            assert got.read_set == want.read_set
            assert got.write_set == want.write_set
            assert got.tx_class == want.tx_class
        assert taped.generated == reference.generated == draws

    def test_consumers_have_independent_cursors(self):
        store = TapeStore()
        first = store.workload(PARAMS, 11)
        second = store.workload(PARAMS, 11)
        head = first.new_transaction(terminal_id=1)
        for _ in range(5):
            first.new_transaction(terminal_id=1)
        # The second consumer still starts at the head of the tape.
        twin = second.new_transaction(terminal_id=9)
        assert twin.id == head.id == 1
        assert twin.read_set == head.read_set
        assert twin.write_set == head.write_set
        assert twin.terminal_id == 9


class TestChunking:
    def test_tape_extends_in_chunks_on_demand(self):
        tape = WorkloadTape(PARAMS, 7)
        assert len(tape) == 0
        tape.spec(0)
        assert len(tape) == TAPE_CHUNK
        tape.spec(TAPE_CHUNK)
        assert len(tape) == 2 * TAPE_CHUNK
        # A far jump extends through every intervening chunk.
        tape.spec(4 * TAPE_CHUNK + 3)
        assert len(tape) == 5 * TAPE_CHUNK

    def test_contents_independent_of_growth_pattern(self):
        incremental = WorkloadTape(PARAMS, 7)
        for k in range(2 * TAPE_CHUNK):
            incremental.spec(k)
        jumped = WorkloadTape(PARAMS, 7)
        jumped.spec(2 * TAPE_CHUNK - 1)
        assert incremental.specs == jumped.specs


class TestTapeStore:
    def test_grid_points_share_one_tape(self):
        store = TapeStore()
        low = store.workload(PARAMS, 11)
        # Another mpl of the same experiment: same tape key.
        high = store.workload(PARAMS.with_changes(mpl=50), 11)
        assert high.tape is low.tape
        assert (store.hits, store.misses) == (1, 1)
        # A different workload gets its own tape.
        other = store.workload(PARAMS.with_changes(write_prob=0.5), 11)
        assert other.tape is not low.tape
        assert (store.hits, store.misses) == (1, 2)

    def test_different_seeds_never_share(self):
        store = TapeStore()
        a = store.workload(PARAMS, 11)
        b = store.workload(PARAMS, 12)
        assert a.tape is not b.tape
        assert store.hits == 0 and store.misses == 2

    def test_different_workload_models_never_share(self):
        store = TapeStore()
        classic = store.workload(PARAMS, 11)
        heavy = store.workload(
            PARAMS.with_changes(workload_model="heavy_tailed"), 11
        )
        assert heavy.tape is not classic.tape
        assert store.hits == 0 and store.misses == 2
        # And the heavy-tailed tape really carries heavy-tailed
        # content: its size draws differ from the uniform tape's.
        sizes = lambda w: [  # noqa: E731
            len(w.new_transaction(terminal_id=0).read_set)
            for _ in range(64)
        ]
        assert sizes(heavy) != sizes(classic)

    def test_non_tapeable_models_are_refused(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"reads": [1, 2], "writes": [2]}\n')
        params = PARAMS.with_changes(
            workload_model="trace",
            workload_spec={"path": str(trace)},
        )
        with pytest.raises(ValueError, match="not .*tapeable"):
            WorkloadTape(params, 11)


HEAVY = {
    "lognormal": PARAMS.with_changes(
        workload_model="heavy_tailed",
        workload_spec={"think_dist": "lognormal", "think_cv": 2.5},
    ),
    "pareto": PARAMS.with_changes(
        workload_model="heavy_tailed",
        workload_spec={"think_dist": "pareto", "think_alpha": 1.4},
    ),
}


def reference_thinks(params, seed, terminal_id, n):
    """The first ``n`` think draws of a fresh terminal stream, singly."""
    stream = StreamFactory(seed).stream(f"terminal.{terminal_id}")
    mean = params.ext_think_time
    spec = params.workload_options()
    if params.workload_model == "closed_classic":
        return [stream.exponential(mean) for _ in range(n)]
    if spec["think_dist"] == "lognormal":
        return [stream.lognormal(mean, spec["think_cv"]) for _ in range(n)]
    return [stream.pareto(spec["think_alpha"], mean) for _ in range(n)]


def taped_model(params, seed, store=None):
    """A model replaying ``store``'s tape for ``(params, seed)``."""
    store = TapeStore() if store is None else store
    return SystemModel(
        params, "blocking", seed=seed,
        workload=store.workload(params, seed),
    )


def flatten(sequence, chunks):
    return [value for k in range(chunks) for value in sequence.chunk(k)]


class TestThinkSequences:
    @pytest.mark.parametrize(
        "params",
        [PARAMS, HEAVY["lognormal"], HEAVY["pareto"]],
        ids=["closed_classic", "lognormal", "pareto"],
    )
    def test_taped_thinks_are_the_single_draws(self, params):
        model = taped_model(params, 31)
        sequences = model.workload.tape.sequences
        for terminal_id in range(params.num_terms):
            taped = flatten(sequences[f"terminal.{terminal_id}"], 3)
            assert taped == reference_thinks(
                params, 31, terminal_id, len(taped)
            )

    @pytest.mark.parametrize(
        "params", [PARAMS, HEAVY["pareto"]], ids=["exponential", "pareto"]
    )
    def test_taped_and_model_owned_thinks_submit_alike(self, params):
        # The same run whether the think sequences are the tape's or
        # the model's own.
        outcomes = []
        for model in (
            SystemModel(params, "blocking", seed=32),
            taped_model(params, 32),
        ):
            model.run_until(20.0)
            outcomes.append((
                model.metrics.submissions.total,
                model.metrics.commits.total,
                model.metrics.response_times.mean,
            ))
            model.close()
        assert outcomes[0] == outcomes[1]


class TestDiskPicks:
    @pytest.mark.parametrize("disks", [2, 8])
    def test_model_owned_and_taped_picks_are_the_single_draws(self, disks):
        params = PARAMS.with_changes(num_disks=disks)
        stream = StreamFactory(33).stream("physical.disk_choice")
        n = 3 * 256 + 5  # crosses three chunk boundaries
        want = [stream.uniform_int(0, disks - 1) for _ in range(n)]
        for model in (
            SystemModel(params, "blocking", seed=33),
            taped_model(params, 33),
        ):
            assert [model.physical._disk_at(0, None) for _ in range(n)] == (
                want
            )

    def test_one_disk_draws_nothing(self):
        model = taped_model(PARAMS.with_changes(num_disks=1), 33)
        assert model.physical._disk_at(0, None) == 0
        assert "physical.disk_choice" not in model.workload.tape.sequences


class TestRecordedSequences:
    def test_contents_independent_of_extension_pattern(self):
        def sequence():
            return WorkloadTape(HEAVY["lognormal"], 34).sequence(
                "terminal.0",
                lambda stream: [stream.lognormal(1.0, 2.0) for _ in range(8)],
            )

        incremental = sequence()
        chunks = [incremental.chunk(k) for k in range(6)]
        jumped = sequence()
        assert jumped.chunk(5) == chunks[5]
        assert jumped.chunks == chunks

    def test_per_model_cursors_are_independent(self):
        store = TapeStore()
        params = PARAMS.with_changes(num_disks=4)
        first = taped_model(params, 35, store)
        second = taped_model(params, 35, store)
        assert first.workload.tape is second.workload.tape
        ahead = [first.physical._disk_at(0, None) for _ in range(300)]
        # The second model still starts at the head of the sequence,
        # and reading it leaves the first model's cursor where it was.
        assert [second.physical._disk_at(0, None) for _ in range(300)] == (
            ahead
        )
        stream = StreamFactory(35).stream("physical.disk_choice")
        for _ in range(300):
            stream.uniform_int(0, 3)
        assert first.physical._disk_at(0, None) == stream.uniform_int(0, 3)


class TestSweepSeeding:
    def test_a_sweep_seeds_each_terminal_stream_once(self, monkeypatch):
        built = []

        class CountingStream(rng.RandomStream):
            __slots__ = ()

            def __init__(self, seed, name=""):
                built.append(name)
                super().__init__(seed, name)

        monkeypatch.setattr(rng, "RandomStream", CountingStream)
        config = ExperimentConfig(
            experiment_id="tape-seeding",
            title="One terminal stream per terminal per sweep",
            params=PARAMS.with_changes(num_terms=200, ext_think_time=1.0),
            algorithms=("blocking", "immediate_restart", "optimistic"),
            mpls=(5, 10, 25, 50),
            metrics=("throughput",),
        )
        sweep = run_sweep(
            config,
            run=RunConfig(
                batches=1, batch_time=0.5, warmup_batches=0, seed=36
            ),
        )
        assert len(sweep.results) == 12
        terminals = [name for name in built if name.startswith("terminal.")]
        assert len(terminals) == 200
        assert len(set(terminals)) == 200
