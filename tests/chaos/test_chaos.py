"""Unit tests for the harness-level chaos primitives.

The recovery suite (tests/experiments/test_recovery.py) proves the
end-to-end guarantees; these tests pin the primitives themselves:
one-shot marker semantics, SIGKILL delivery, deterministic file
corruption, and the fsync patch's restore discipline.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.chaos import ChaosSpec, FlakyFsync, garble_tail, truncate_tail
from repro.experiments import persistence

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="SIGKILL delivery is asserted on forked children",
)


def _touch_after_chaos(spec, algorithm, mpl, witness):
    spec.on_point_start((algorithm, mpl))
    with open(witness, "w") as f:
        f.write("survived")


class TestChaosSpec:
    def test_no_planned_faults_is_inert(self, tmp_path):
        spec = ChaosSpec(state_dir=str(tmp_path))
        spec.on_point_start(("blocking", 2))  # must simply return
        assert os.listdir(tmp_path) == []

    def test_unmatched_points_do_not_trip(self, tmp_path):
        spec = ChaosSpec(
            state_dir=str(tmp_path), kill_point=("optimistic", 5)
        )
        spec.on_point_start(("blocking", 5))
        spec.on_point_start(("optimistic", 2))
        assert os.listdir(tmp_path) == []

    @FORK_ONLY
    def test_kill_point_sigkills_once_then_arms_off(self, tmp_path):
        spec = ChaosSpec(
            state_dir=str(tmp_path / "state"),
            kill_point=("blocking", 2),
        )
        witness = str(tmp_path / "witness")
        first = multiprocessing.Process(
            target=_touch_after_chaos,
            args=(spec, "blocking", 2, witness),
        )
        first.start()
        first.join(30.0)
        assert first.exitcode == -signal.SIGKILL
        assert not os.path.exists(witness)  # died before the write
        assert os.path.exists(spec.marker_path("kill", ("blocking", 2)))
        # The marker makes the fault one-shot: the retry survives.
        second = multiprocessing.Process(
            target=_touch_after_chaos,
            args=(spec, "blocking", 2, witness),
        )
        second.start()
        second.join(30.0)
        assert second.exitcode == 0
        assert os.path.exists(witness)

    def test_hang_point_sleeps_once(self, tmp_path):
        spec = ChaosSpec(
            state_dir=str(tmp_path), hang_point=("blocking", 2),
            hang_seconds=0.2,
        )
        started = time.perf_counter()
        spec.on_point_start(("blocking", 2))
        assert time.perf_counter() - started >= 0.2
        started = time.perf_counter()
        spec.on_point_start(("blocking", 2))  # marker exists: no sleep
        assert time.perf_counter() - started < 0.2

    def test_spec_pickles(self, tmp_path):
        import pickle

        spec = ChaosSpec(
            state_dir=str(tmp_path), kill_point=("blocking", 2),
            hang_point=("optimistic", 5), hang_seconds=1.0,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_describe_names_the_faults(self, tmp_path):
        spec = ChaosSpec(
            state_dir=str(tmp_path), kill_point=("blocking", 2)
        )
        assert "kill=blocking@2" in spec.describe()
        assert ChaosSpec(state_dir=str(tmp_path)).describe() == (
            "chaos(null)"
        )


class TestStorageChaos:
    def test_truncate_tail_chops_exactly(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as f:
            f.write(b"0123456789")
        assert truncate_tail(path, 4) == 6
        with open(path, "rb") as f:
            assert f.read() == b"012345"

    def test_truncate_past_start_empties(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as f:
            f.write(b"abc")
        assert truncate_tail(path, 99) == 0
        assert os.path.getsize(path) == 0

    def test_garble_tail_is_deterministic_and_never_a_noop(
            self, tmp_path):
        original = b"x" * 64
        damaged = []
        for index in range(2):
            path = str(tmp_path / f"f{index}")
            with open(path, "wb") as f:
                f.write(original)
            assert garble_tail(path, 16, seed=7) == 16
            with open(path, "rb") as f:
                damaged.append(f.read())
        assert damaged[0] == damaged[1]  # same seed, same damage
        assert damaged[0][:48] == original[:48]
        # Every garbled byte actually changed (the mask is never 0).
        assert all(
            damaged[0][i] != original[i] for i in range(48, 64)
        )

    def test_garble_respects_file_size(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as f:
            f.write(b"abc")
        assert garble_tail(path, 99, seed=1) == 3


class TestFlakyFsync:
    def test_patches_and_restores_the_seam(self, tmp_path):
        original = persistence._fsync
        with FlakyFsync(failures=2) as flaky:
            assert persistence._fsync is not original
            with pytest.raises(OSError):
                persistence.atomic_write_text(
                    str(tmp_path / "a"), "x"
                )
            with pytest.raises(OSError):
                persistence.atomic_write_text(
                    str(tmp_path / "b"), "x"
                )
            # Third call passes through to the real fsync.
            persistence.atomic_write_text(str(tmp_path / "c"), "x")
        assert persistence._fsync is original
        assert flaky.calls == 3
        assert not os.path.exists(str(tmp_path / "a"))
        assert os.path.exists(str(tmp_path / "c"))

    def test_restores_on_exception(self):
        original = persistence._fsync
        with pytest.raises(RuntimeError):
            with FlakyFsync():
                raise RuntimeError("boom")
        assert persistence._fsync is original
