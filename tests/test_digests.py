"""The benchmark's outputs are frozen: sha256 digests of its instance texts.

`bench/workloads.py` is imported as it is, with nothing written under
`bench/`.  Each digest is the one `bench/run.py` takes of a round: the
repr of every instance and the canonical text of its outputs, in the
seeded order, with the package caches cleared before each instance.  A
change to the program that moves any output shows here.  A change to the
instance sets (`workloads.build`) or to the texts (`workloads.run`) moves
the digests too: those must be recorded again, from a run of the commit
before the change.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import macdaha

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    ("routes", 1): "e8dfc4a489856389a799240538fc7ad178898d761fa67e28c760dd848c37627b",
    ("routes", 3): "22506b3365986421ff02071e1071ddd44b66322e4303604cf743f67467670a54",
    ("operators", 1): "30b5fc3b25f782d008bcbda436fd8826890088f9cb17f71c2cede37de128d61b",
    ("operators", 3): "ef514cab9e584898921d27ae8f00f374fc06ac983b87ed72dc4b96449b5e87f9",
    ("lattice", 1): "a61f80cebef9577e9913005de70cda4c9731250aaa8502bcd5714f32b488d769",
    ("lattice", 3): "c315cada148176a7bd11003fa0525fbeefe4b9de148204e509c0a5fff3141ec8",
}


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported with no bytecode written under bench/."""
    sys.path.insert(0, str(BENCH))
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
        yield workloads
    finally:
        sys.dont_write_bytecode = write
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_benchmark_outputs_are_unchanged(workloads, workload, seed):
    digest = hashlib.sha256()
    for inst in workloads.build(workload, seed):
        macdaha.clear_caches()
        ok, text, _ = workloads.run(inst)
        assert ok, (inst, text)
        digest.update(repr(inst).encode())
        digest.update(text.encode())
    macdaha.clear_caches()
    assert digest.hexdigest() == DIGESTS[workload, seed]
