"""One configuration identity: every SimulationParameters field counts.

In process, frozen-dataclass equality is the identity; on disk it is
``SimulationParameters.canonical()``. Perturbing any single field must
change the fingerprint and make a checkpoint refuse to resume (naming
that field). Workload tapes key on the whole parameter set with ``mpl``
normalised, so every field but ``mpl`` also changes the tape key, and
``mpl`` must really leave the drawn transaction sequence unchanged.
"""

import dataclasses

import pytest

from repro.core import RunConfig, SimulationParameters, TransactionClass
from repro.core.params import DELAY_MODE_ADAPTIVE_ALL
from repro.des import StreamFactory
from repro.experiments import (
    CheckpointMismatchError,
    ExperimentConfig,
    SweepCheckpoint,
    run_sweep,
)
from repro.experiments.runner import SweepResult
from repro.fastlane.tapes import TAPE_CHUNK, tape_key
from repro.faults import DiskFaultSpec, FaultSpec
from repro.workloads import create_workload_model

RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=13)

#: Small, and with every optional group switched on so that each field
#: can be perturbed on its own and still validate.
BASE = SimulationParameters(
    db_size=200, min_size=4, max_size=8, write_prob=0.25,
    num_terms=10, mpl=5, ext_think_time=0.5,
    obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    hot_fraction=0.2, hot_access_prob=0.8, nodes=2,
)

#: One changed value per field. A field without an entry fails
#: test_every_field_has_a_perturbation.
PERTURBATIONS = {
    "db_size": 300,
    "min_size": 3,
    "max_size": 9,
    "write_prob": 0.5,
    "num_terms": 11,
    "mpl": 50,
    "ext_think_time": 0.75,
    "int_think_time": 0.1,
    "obj_io": 0.02,
    "obj_cpu": 0.006,
    "cc_cpu": 0.001,
    "num_cpus": 2,
    "num_disks": 3,
    "restart_delay_mode": DELAY_MODE_ADAPTIVE_ALL,
    "restart_delay": 2.0,
    "hot_fraction": 0.25,
    "hot_access_prob": 0.9,
    "arrival_rate": 5.0,
    "workload_model": "heavy_tailed",
    "workload_spec": {"rate": 4.0},
    "lock_granules": 50,
    "workload_mix": (TransactionClass(
        name="small", weight=1.0, min_size=1, max_size=4, write_prob=0.1,
    ),),
    "faults": FaultSpec(disk=DiskFaultSpec()),
    "resource_model": "buffered",
    "buffer_capacity": 20,
    "buffer_policy": "fixed",
    "buffer_hit_ratio": 0.5,
    "disk_placement": "striped",
    "nodes": 3,
    "network_delay": 0.005,
    "replication_factor": 2,
    "commit_protocol": "2pc",
}

FIELDS = [f.name for f in dataclasses.fields(SimulationParameters)]


def config(params):
    return ExperimentConfig(
        experiment_id="identity", title="identity",
        params=params, algorithms=("blocking",), mpls=(2,),
    )


def test_every_field_has_a_perturbation():
    assert sorted(PERTURBATIONS) == sorted(FIELDS)
    assert len(FIELDS) == 32


@pytest.mark.parametrize("name", FIELDS)
class TestEveryField:
    def variant(self, name):
        variant = BASE.with_changes(**{name: PERTURBATIONS[name]})
        assert variant != BASE
        return variant

    def test_fingerprint_changes(self, name):
        variant = self.variant(name)
        assert variant.fingerprint() != BASE.fingerprint()
        assert variant.canonical()[name] != BASE.canonical()[name]

    def test_checkpoint_refuses_to_resume_naming_the_field(
            self, name, tmp_path):
        path = str(tmp_path / "identity.ckpt.jsonl")
        SweepCheckpoint(path, config(BASE), RUN).start_fresh()
        resuming = config(self.variant(name))
        checkpoint = SweepCheckpoint(path, resuming, RUN)
        with pytest.raises(CheckpointMismatchError, match=f" in {name};"):
            checkpoint.load_into(SweepResult(config=resuming, run=RUN))

    def test_tape_key_changes_for_every_field_but_mpl(self, name):
        changed = tape_key(self.variant(name), 7) != tape_key(BASE, 7)
        assert changed == (name != "mpl")


@pytest.mark.parametrize(
    "workload_model", ["closed_classic", "open_poisson", "heavy_tailed"]
)
def test_mpl_leaves_the_drawn_sequence_unchanged(workload_model):
    def draws(mpl):
        params = BASE.with_changes(workload_model=workload_model, mpl=mpl)
        generator = create_workload_model(params).build_generator(
            params, StreamFactory(7)
        )
        return [
            (tx.read_set, tx.write_set, tx.tx_class)
            for tx in (
                generator.new_transaction(terminal_id=0)
                for _ in range(2 * TAPE_CHUNK + 10)
            )
        ]

    assert draws(5) == draws(PERTURBATIONS["mpl"])


def test_resume_with_edited_db_size_is_refused(tmp_path):
    # The same experiment id resumed under an edited field: before the
    # whole-params header, this restored the old measurements silently.
    path = str(tmp_path / "sweep.ckpt.jsonl")
    single_site = BASE.with_changes(nodes=1)
    run_sweep(config(single_site), run=RUN, checkpoint=path)
    edited = config(single_site.with_changes(db_size=100))
    with pytest.raises(CheckpointMismatchError, match="db_size"):
        run_sweep(edited, run=RUN, checkpoint=path, resume=True)
