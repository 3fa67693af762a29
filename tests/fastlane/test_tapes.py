"""Workload tapes: draw identity, chunking, and cross-point sharing.

Every model reads its transaction content through a cursor over the
``workload`` draw sequence: a private, unrecorded one when it runs
alone, the sweep's recorded one when it is given a tape store. Both
must hand out the transactions the generator once built itself, byte
for byte — same read sets, write sets, class tags, ids — for every
workload shape (uniform, hotspot, multi-class mix, heavy-tailed
sizes), however the sequence was grown and however many readers
share it. The think-time
and disk-pick sequences a tape records must be the single draws of
fresh streams, value for value, and a sweep must seed each terminal
stream once, not once per grid point. A model reads only the tape of
its own seed.
"""

import hashlib

import pytest

from repro.core import RunConfig, SimulationParameters, SystemModel
from repro.core.params import TransactionClass
from repro.core.simulation import run_point_replications, run_simulation
from repro.core.workload import CONTENT_CHUNK, ContentCursor
from repro.des import StreamFactory, rng
from repro.experiments import ExperimentConfig, run_sweep
from repro.experiments import runner as runner_module
from repro.experiments.errors import SimulationStalledError
from repro.fastlane import TapeStore, WorkloadTape, tape_key
from repro.workloads import create_workload_model

from tests.fastlane.grid import result_fingerprint

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
HEAVY_SIZES = PARAMS.with_changes(
    workload_model="heavy_tailed", workload_spec={"preset": "web_sessions"},
)
HEAVY_MIXED_HOTSPOT = MIXED.with_changes(
    hot_fraction=0.1, hot_access_prob=0.8, workload_model="heavy_tailed",
    workload_spec={"size_dist": "lognormal", "size_cv": 2.0},
)

#: sha256 over ``repr((id, read_set, sorted(write_set), class))`` of
#: the first 600 transactions, seed 101, drawn one at a time by the
#: model-owned generator that built each Transaction itself (the
#: design before content became a draw sequence).
PINNED_TRANSACTIONS = {
    "closed_classic": (
        PARAMS,
        "5a302e34f758e0bf3710d931c1f8bb52e92b09eab2d3a05f986ff43adbd9bb36",
    ),
    "hotspot": (
        HOTSPOT,
        "00db36b562881b2758f3f4f2ec8d6ea23bb2919714c9c22b967f9393dba87858",
    ),
    "workload_mix": (
        MIXED,
        "668dc6d68005afa1df18ee28bfe05311f32f079111762ccf5181667489d8b617",
    ),
    "heavy_tailed": (
        HEAVY_SIZES,
        "0ce640f3307d9f9b776712bde10596eeccb855d38ab67057763da9db793ca1cc",
    ),
    "heavy_mixed_hotspot": (
        HEAVY_MIXED_HOTSPOT,
        "dcaf60a767c71ed26743a7b82b6a69a3629bc410874af24c853bae3fa54d714d",
    ),
}


def content_cursor(params, seed, store=None):
    """The workload model's content source, private or over a tape."""
    recorder = None if store is None else store.tape(params, seed)
    return create_workload_model(params).build_generator(
        StreamFactory(seed, recorder=recorder)
    )


class TestDrawIdentity:
    @pytest.mark.parametrize("recorded", [False, True],
                             ids=["private", "recorded"])
    @pytest.mark.parametrize("shape", sorted(PINNED_TRANSACTIONS))
    def test_cursor_hands_out_the_pinned_transactions(self, shape,
                                                      recorded):
        params, want = PINNED_TRANSACTIONS[shape]
        cursor = content_cursor(
            params, 101, TapeStore() if recorded else None
        )
        assert isinstance(cursor, ContentCursor)
        digest = hashlib.sha256()
        draws = 600  # crosses many chunk boundaries
        for k in range(draws):
            tx = cursor.new_transaction(terminal_id=k % 7)
            assert tx.terminal_id == k % 7
            digest.update(repr((
                tx.id, tx.read_set, sorted(tx.write_set), tx.tx_class
            )).encode())
        assert digest.hexdigest() == want
        assert cursor.generated == draws

    def test_consumers_have_independent_cursors(self):
        store = TapeStore()
        first = content_cursor(PARAMS, 11, store)
        second = content_cursor(PARAMS, 11, store)
        head = first.new_transaction(terminal_id=1)
        for _ in range(CONTENT_CHUNK + 5):
            first.new_transaction(terminal_id=1)
        # The second consumer still starts at the head of the tape.
        twin = second.new_transaction(terminal_id=9)
        assert twin.id == head.id == 1
        assert twin.read_set == head.read_set
        assert twin.write_set == head.write_set
        assert twin.terminal_id == 9
        assert (first.generated, second.generated) == (CONTENT_CHUNK + 6, 1)


class TestChunking:
    def test_recorded_content_extends_in_chunks_on_demand(self):
        store = TapeStore()
        cursor = content_cursor(PARAMS, 7, store)
        chunks = store.tape(PARAMS, 7).sequences["workload"].chunks
        assert chunks == []
        cursor.new_transaction(0)
        assert len(chunks) == 1
        for _ in range(CONTENT_CHUNK):
            cursor.new_transaction(0)
        assert len(chunks) == 2
        # A far jump extends through every intervening chunk.
        store.tape(PARAMS, 7).sequences["workload"].chunk(4)
        assert len(chunks) == 5
        assert all(len(chunk) == CONTENT_CHUNK for chunk in chunks)

    def test_recorded_contents_independent_of_growth_pattern(self):
        incremental = TapeStore()
        cursor = content_cursor(PARAMS, 7, incremental)
        for _ in range(2 * CONTENT_CHUNK):
            cursor.new_transaction(0)
        jumped = TapeStore()
        content_cursor(PARAMS, 7, jumped)
        jumped.tape(PARAMS, 7).sequences["workload"].chunk(1)
        assert (
            incremental.tape(PARAMS, 7).sequences["workload"].chunks
            == jumped.tape(PARAMS, 7).sequences["workload"].chunks
        )

    def test_private_content_keeps_no_chunks(self):
        cursor = content_cursor(PARAMS, 7)
        for _ in range(3 * CONTENT_CHUNK):
            cursor.new_transaction(0)
        assert cursor.sequence.chunks is None

    def test_generated_counts_handed_out_transactions(self):
        run = RunConfig(batches=2, batch_time=3.0, warmup_batches=0,
                        seed=21)
        model = SystemModel(PARAMS, "blocking", seed=run.seed)
        model.run_until(6.0)
        generated = model.workload.generated
        # The run stops mid-chunk: specs were drawn past the last
        # transaction handed out, and none of them is counted.
        assert generated % CONTENT_CHUNK != 0
        assert generated == model.metrics.submissions.total
        model.close()
        for store in (None, TapeStore()):
            result = run_point_replications(
                PARAMS, "blocking", run, 1, tapes=store
            )[0]
            assert result.totals["transactions_generated"] == generated


class TestTapeStore:
    def test_grid_points_share_one_tape(self):
        store = TapeStore()
        low = store.tape(PARAMS, 11)
        # Another mpl of the same experiment: same tape key.
        high = store.tape(PARAMS.with_changes(mpl=50), 11)
        assert high is low
        assert (store.hits, store.misses) == (1, 1)
        # A different workload gets its own tape.
        other = store.tape(PARAMS.with_changes(write_prob=0.5), 11)
        assert other is not low
        assert (store.hits, store.misses) == (1, 2)

    def test_different_seeds_never_share(self):
        store = TapeStore()
        assert store.tape(PARAMS, 11) is not store.tape(PARAMS, 12)
        assert store.hits == 0 and store.misses == 2

    def test_different_workload_models_never_share(self):
        store = TapeStore()
        classic = content_cursor(PARAMS, 11, store)
        heavy = content_cursor(HEAVY_SIZES, 11, store)
        assert store.tape(HEAVY_SIZES, 11) is not store.tape(PARAMS, 11)
        assert store.misses == 2
        # And the heavy-tailed tape really carries heavy-tailed
        # content: its size draws differ from the uniform tape's.
        sizes = lambda w: [  # noqa: E731
            len(w.new_transaction(terminal_id=0).read_set)
            for _ in range(64)
        ]
        assert sizes(heavy) != sizes(classic)


class TestTapeSeed:
    def test_a_model_reads_only_the_tape_of_its_own_seed(self):
        run = RunConfig(batches=2, batch_time=3.0, warmup_batches=1,
                        seed=1)
        store = TapeStore()
        store.tape(PARAMS, 2)
        assert (store.hits, store.misses) == (0, 1)
        taped = run_point_replications(
            PARAMS, "blocking", run, 1, tapes=store
        )[0]
        # The seed-1 model asked for a tape of its own seed: a new one.
        assert (store.hits, store.misses) == (0, 2)
        assert set(store.tapes) == {
            tape_key(PARAMS, 1), tape_key(PARAMS, 2)
        }
        alone = run_simulation(PARAMS, "blocking", run=run)
        assert result_fingerprint(taped) == result_fingerprint(alone)

    def test_a_retried_point_reads_a_tape_of_its_own_seed(self):
        config = ExperimentConfig(
            experiment_id="tape-retry", title="A retried point's tape",
            params=PARAMS, algorithms=("blocking",), mpls=(5,),
            metrics=("throughput",),
        )
        run = RunConfig(batches=2, batch_time=3.0, warmup_batches=1,
                        seed=3)
        attempts = []
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications

        def failing_once(params, algorithm, run, replications, **kwargs):
            results = original(params, algorithm, run, replications,
                               **kwargs)
            attempts.append((run.seed, kwargs["tapes"]))
            if len(attempts) == 1:
                raise SimulationStalledError(1.0, 1.0, 0)
            return results

        fastlane.run_point_replications = failing_once
        try:
            sweep = run_sweep(config, run=run, retries=1,
                              stall_timeout=60.0)
        finally:
            fastlane.run_point_replications = original
        (first_seed, store), (retry_seed, retry_store) = attempts
        assert retry_store is store and retry_seed != first_seed
        assert set(store.tapes) == {
            tape_key(PARAMS, first_seed), tape_key(PARAMS, retry_seed)
        }
        assert sweep.status("blocking", 5).attempts == 2
        alone = run_simulation(
            PARAMS, "blocking", run=run.with_changes(seed=retry_seed)
        )
        assert result_fingerprint(sweep.results[("blocking", 5)]) == (
            result_fingerprint(alone)
        )


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
    """A model reading ``store``'s tape for ``(params, seed)``."""
    store = TapeStore() if store is None else store
    return SystemModel(params, "blocking", seed=seed, tapes=store)



def flatten(sequence, chunks):
    return [value for k in range(chunks) for value in sequence.chunk(k)]


class TestThinkSequences:
    @pytest.mark.parametrize(
        "params",
        [PARAMS, HEAVY["lognormal"], HEAVY["pareto"]],
        ids=["closed_classic", "lognormal", "pareto"],
    )
    def test_taped_thinks_are_the_single_draws(self, params):
        store = TapeStore()
        taped_model(params, 31, store)
        sequences = store.tapes[tape_key(params, 31)].sequences
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
        params = PARAMS.with_changes(num_disks=1)
        store = TapeStore()
        model = taped_model(params, 33, store)
        assert model.physical._disk_at(0, None) == 0
        tape = store.tapes[tape_key(params, 33)]
        assert "physical.disk_choice" not in tape.sequences


class TestRecordedSequences:
    def test_contents_independent_of_extension_pattern(self):
        def sequence():
            return WorkloadTape(34).sequence(
                "terminal.0",
                lambda streams: lambda: [
                    streams.stream("terminal.0").lognormal(1.0, 2.0)
                    for _ in range(8)
                ],
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
        assert (store.hits, store.misses) == (1, 1)
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
