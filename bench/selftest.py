"""Self-test of the benchmark's checks: corrupted outputs must count as failures.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Uses small instances of the workloads so it finishes in seconds.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import dsss_stego  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import FileRoundtrip, SimWorkload, SweepGrid  # noqa: E402


def _scratch() -> tempfile.TemporaryDirectory:
    run_dir = BENCH.parent / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run_dir)


def _one_op(workload, scratch: Path, seed: int = 7):
    rec = tracer.SpanRecorder()
    inp = workload.make_input(np.random.default_rng([seed, 0]), scratch)
    return inp, workload.run(inp, rec)


def test_sim_check_rejects_corrupted_report():
    workload = SimWorkload("sim-small", num_symbols=400, embed_rate=0.5)
    with _scratch() as tmp:
        inp, report = _one_op(workload, Path(tmp))
    assert workload.check(inp, report, Counter()) == []
    for field, delta in (("stego_symbols_sent", 1), ("chips_sent", -1), ("symbols_sent", 1)):
        bad = dataclasses.replace(report, **{field: getattr(report, field) + delta})
        assert workload.check(inp, bad, Counter()), field
    flips = Counter({"channel.flips": report.chip_errors + 1})
    assert workload.check(inp, report, flips)


def test_file_roundtrip_check_rejects_corrupted_payload():
    workload = FileRoundtrip(payload_bytes=32)
    with _scratch() as tmp:
        inp, codes = _one_op(workload, Path(tmp))
        assert workload.check(inp, codes, Counter()) == []
        covert = bytearray(inp.covert_out.read_bytes())
        covert[3] ^= 0x10
        inp.covert_out.write_bytes(bytes(covert))
        assert workload.check(inp, codes, Counter())
        assert workload.check(inp, (0, 3), Counter())


def test_sweep_check_rejects_corrupted_csv():
    workload = SweepGrid(symbols_per_point=8)
    with _scratch() as tmp:
        inp, codes = _one_op(workload, Path(tmp))
        assert workload.check(inp, codes, Counter()) == []
        text = inp.sweep_csv.read_text().splitlines()
        text[1] = text[1].replace(",8,", ",9,")
        inp.sweep_csv.write_text("\n".join(text) + "\n")
        assert workload.check(inp, codes, Counter())


def test_loop_counts_corrupted_output_as_failed():
    workload = SimWorkload("sim-small", num_symbols=200, embed_rate=0.0)
    real = dsss_stego.run_simulation

    def corrupted(config):
        report = real(config)
        return dataclasses.replace(report, chips_sent=report.chips_sent + 1)

    dsss_stego.run_simulation = corrupted
    try:
        with _scratch() as tmp:
            ops = worker.run_loop(workload, 3, 0.0, False, Path(tmp), tracer.SpanRecorder())
    finally:
        dsss_stego.run_simulation = real
    assert ops and all(o.errors for o in ops)


def test_gate_reports_changed_digest():
    digests = dict(gate.PINS)
    assert gate.mismatches(digests) == []
    digests["perm.ACE1"] = "0" * 64
    assert gate.mismatches(digests) == ["perm.ACE1"]


def test_instrumentation_restores_originals_and_nests_spans():
    from dsss_stego import cli, pipeline, stego

    originals = (pipeline.encode_stream, cli.encode_stream, stego.KeySchedule.permutation)
    workload = SimWorkload("sim-small", num_symbols=64, embed_rate=1.0)
    rec = tracer.SpanRecorder()
    rec.op = 0
    with _scratch() as tmp:
        inp = workload.make_input(np.random.default_rng([5, 0]), Path(tmp))
    with tracer.Instrumentation(rec, tracer.ALL_TARGETS):
        assert pipeline.encode_stream is cli.encode_stream is not originals[0]
        with rec.span("op"):
            workload.run(inp, rec)
    assert (pipeline.encode_stream, cli.encode_stream, stego.KeySchedule.permutation) == originals
    t = tracer.totals(rec, {0})
    assert t.calls["stego.permutation"] == 2 * 64  # encoder and decoder, one per slot
    assert t.self_time["pipeline.encode_stream"] < t.busy["pipeline.encode_stream"]
    assert abs(sum(t.self_time.values()) - t.busy["op"]) < 1e-6
    assert rec.counts[0]["pipeline.extract_exact"] + rec.counts[0]["pipeline.extract_fallback"] == 64


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
