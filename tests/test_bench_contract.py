"""The package surface the benchmark in ``bench/`` relies on.

The traced benchmark wraps package functions by name and reads counters
from their arguments and return values: ``pipeline.despread_stream``,
``KeySchedule.permutation``, ``chipmap.code_matrix()``, the
``DecodedStream.slots[*].exact``/``.weight`` diagnostics, the ``path``
parameter of ``read_chip_stream``/``write_chip_stream`` and the ``params``
parameter of ``transmit_stream``.  One operation of each workload runs here
with every layer wrapped, so a refactor that drops one of these names fails
in the test suite rather than in the middle of a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from dsss_stego import chipmap, stego

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

# counters each workload's traced operation must produce, one per hook it reaches
HOOK_COUNTERS = {
    "sim-clean": {"chipmap.despread_symbols", "channel.flips", "pipeline.schedule_symbols"},
    "sim-covert": {
        "channel.expected_flips", "pipeline.extract_exact", "pipeline.extract_fallback"
    },
    "file-roundtrip": {"fileio.bytes", "pipeline.extract_exact", "pipeline.diff_weight.5"},
    "sweep-grid": {"analysis.points", "channel.flips", "chipmap.despread_symbols"},
}


@pytest.mark.parametrize("name", sorted(HOOK_COUNTERS))
def test_traced_workload_operation_passes_its_checks(name, tmp_path):
    # the tables the benchmark worker warms before its loop
    stego.build_codebook()
    chipmap.standard_code_set()
    chipmap.code_matrix()
    workload = workloads.make_workloads()[name]
    inp = workload.make_input(np.random.default_rng([2011, 1]), tmp_path)
    rec = tracer.SpanRecorder()
    rec.op = 1
    with tracer.Instrumentation(rec, tracer.ALL_TARGETS):
        result = workload.run(inp, rec)
    counts = rec.counts[1]
    assert workload.check(inp, result, counts) == []
    assert HOOK_COUNTERS[name] <= set(counts)
