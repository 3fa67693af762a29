"""Golden-output parity: the registry refactor changed no behavior.

The digests below were generated by the pre-refactor code (the
physical tier then hard-coded in ``repro.core.physical``, a module
since removed) at commit 8ba5005,
for all three paper algorithms under finite and infinite resources.
The ``classic`` resource model — and the in-band infinite branch it
carries — must reproduce them bit-for-bit: every total and every
per-batch output series, for fixed seeds.

If a change legitimately alters simulation behavior, regenerate with
the recipe in ``_fingerprint`` — but that is a results-compatibility
break and must be called out, not silently absorbed.
"""

import hashlib
import json

import pytest

from repro.core.params import RunConfig, SimulationParameters
from repro.core.simulation import run_simulation

FINITE = SimulationParameters(
    db_size=200, min_size=2, max_size=8, write_prob=0.25,
    num_terms=25, mpl=8, ext_think_time=0.5,
    obj_io=0.02, obj_cpu=0.01, num_cpus=1, num_disks=2,
)
INFINITE = FINITE.with_changes(num_cpus=None, num_disks=None)
RUN = RunConfig(batches=3, batch_time=10.0, warmup_batches=1, seed=20250807)

#: sha256 of the pre-refactor run output, keyed (algorithm, resources).
GOLDEN = {
    ("blocking", "finite"):
        "5660334c28e3c82f8a51a4ebc72267070dba48738fb72ce1261b56bcb6bb797e",
    ("immediate_restart", "finite"):
        "330c8c701b1fb88ea7877efed6dcf10131db03c4d93a533708e2b8b55d4e796a",
    ("optimistic", "finite"):
        "99660a5a2d857e9d17700eb7b06167a365590387f4c080eb629ecb664b5a8c91",
    ("blocking", "infinite"):
        "523b0ec3ed7783219af4980792164174ad91e71314f76275221621cc0adaa1b6",
    ("immediate_restart", "infinite"):
        "308fff8cd959d4daa507503160f79ccc4bf0de19957bb1b7fdd0c413eced41ba",
    ("optimistic", "infinite"):
        "30dc832530fad7699ddc75b0ef8048855e50d81deee89d3f2eb7eb00e5ebe8c7",
}


def _fingerprint(result):
    payload = {
        "totals": result.totals,
        "series": {
            name: list(result.analyzer.series(name).values)
            for name in sorted(result.analyzer.names())
        },
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("algorithm,resources", sorted(GOLDEN))
def test_classic_matches_pre_refactor_golden(algorithm, resources):
    params = FINITE if resources == "finite" else INFINITE
    result = run_simulation(params, algorithm=algorithm, run=RUN)
    assert _fingerprint(result) == GOLDEN[(algorithm, resources)]

