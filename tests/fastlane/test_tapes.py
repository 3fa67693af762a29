"""Workload tapes: draw-identity, chunking, and cross-point sharing.

A tape must replay the model-owned :class:`WorkloadGenerator`
byte-for-byte — same read sets, write sets, class tags, ids — for every
workload shape the paper uses (uniform, hotspot, multi-class mix), no
matter how the tape was grown or how many consumers share it.
"""

import pytest

from repro.core import SimulationParameters
from repro.core.params import TransactionClass
from repro.core.workload import WorkloadGenerator
from repro.des import StreamFactory
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
