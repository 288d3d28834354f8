"""Every benchmark workload's seed-303 pass renders the same bytes as when its
digest was recorded, and every job passes its own check.

The workloads come from `perfbench/workloads.py`, loaded by file path and
only read, and the digest is formed as `perfbench/run.py` forms it: sha256
over `f"{label}\\n{text}\\n"` for each job in list order.  A change that moves
any output byte of any workload fails here.  Outputs must not depend on the
hash seed either, so CI runs this file a second time under PYTHONHASHSEED=1.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

SEED = 303
DIGESTS = {
    "verify": "1cc2269e1d557ab76aa11d88ba0b0b31535554f600fda72fb7f39e4d7bbd9932",
    "seq": "72667ad2e1d58f3eab499565e8a14eef4de8177808361ac982d25d3192ea0a35",
    "crosscheck": "0cffc4ac380b13af9bdfbe7c88071f68d97e0800bfe17367a769f1f90c80459a",
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_hkforge_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_303_pass_keeps_its_digest(name):
    workload = workloads.build(name, SEED)
    results = [job.compute() for job in workload.jobs]
    digest = hashlib.sha256()
    failed = set(workload.cross_check(results))
    for index, (job, result) in enumerate(zip(workload.jobs, results)):
        digest.update(f"{job.label}\n{job.render(result)}\n".encode())
        if not job.check(result):
            failed.add(index)
    assert not failed, [workload.jobs[index].label for index in sorted(failed)]
    assert digest.hexdigest() == DIGESTS[name]
