"""Run one workload in this (fresh) process and print its figures as JSON.

``run.py`` starts this script with the package's ``src`` on PYTHONPATH and
the BLAS thread counts set to 1.  The loop is closed: one client, and each
operation starts when the previous one has returned.  Inputs come from the
workload seed and the operation's index; they are made and checked outside
the operation's timing.

With tracing off the loop gives the end-to-end figures.  With tracing on,
odd-numbered operations run with every layer wrapped and even-numbered ones
without, so the per-layer figures and the tracing overhead come from the
same run.  After the loop, the wire-contract gate recomputes the pinned
digests; each one counts as an attempted check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dsss_stego
import gate
import speed
import tracer
from dsss_stego import chipmap, stego
from workloads import make_workloads

MAX_REPORTED_ERRORS = 5
SETUP_PROBES = 9
PROBE = Path(__file__).resolve().parent / "probe.py"


@dataclass
class Op:
    index: int
    traced: bool
    seconds: float
    calibration_s: float  # the calibration loop, timed just before the operation
    errors: list[str] = field(default_factory=list)


class SetupProbes:
    """Set-up timings from fresh interpreters (``probe.py``), spread over the run.

    The host's speed drifts over tens of seconds, so probes taken at one
    moment would all share that moment's speed.
    """

    def __init__(self, count: int, seconds: float):
        self.count = count
        self.interval = seconds / count
        self.samples: list[dict] = []

    def _probe(self) -> None:
        done = subprocess.run(
            [sys.executable, str(PROBE)], stdout=subprocess.PIPE, text=True,
            timeout=60, check=True,
        )
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def due(self, elapsed: float) -> None:
        if len(self.samples) < self.count and elapsed >= len(self.samples) * self.interval:
            self._probe()

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self._probe()

    def median(self, key: str) -> float:
        """Median of one figure over the probes, each scaled by its own calibration."""
        return statistics.median(
            p[key] * speed.REFERENCE_S / p["calibration_s"] for p in self.samples
        )


def run_loop(workload, seed: int, seconds: float, trace: bool, scratch: Path, rec, probes=None):
    ops: list[Op] = []
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        if probes is not None:
            probes.due(time.perf_counter() - start)
        index = len(ops)
        inp = workload.make_input(np.random.default_rng([seed % (1 << 64), index]), scratch)
        traced = trace and index % 2 == 1
        calibration_s = speed.calibrate()
        rec.op = index
        result, errors = None, []
        with tracer.Instrumentation(rec, tracer.ALL_TARGETS if traced else tracer.E2E_TARGETS):
            sid = rec.open("op")
            try:
                result = workload.run(inp, rec)
            except Exception:
                errors.append(traceback.format_exc())
            finally:
                rec.close(sid)
        _, t0, t1, *_ = rec.spans[sid]
        if not errors:
            try:
                errors = workload.check(inp, result, rec.counts[index])
            except Exception:
                errors.append(traceback.format_exc())
        ops.append(Op(index, traced, t1 - t0, calibration_s, errors))
    return ops


def per_op_busy(rec, name: str) -> dict[int, float]:
    busy: dict[int, float] = defaultdict(float)
    for span, start, end, _, op in rec.spans:
        if span == name:
            busy[op] += end - start
    return busy


def speed_scale(ops: list[Op]) -> float:
    """Factor that turns this run's fastest times into times at the reference speed."""
    return speed.REFERENCE_S / min(o.calibration_s for o in ops)


def end_to_end(workload, ops: list[Op], rec) -> dict[str, float]:
    """Figures of the fastest operation, at the calibration's reference speed.

    The fastest operation and the fastest calibration loop of a run both
    catch the host at its least loaded; their ratio cancels how fast that
    was (see speed.py).
    """
    scale = speed_scale(ops)

    def best_seconds(span):
        busy = per_op_busy(rec, span)
        missing = [o.index for o in ops if busy[o.index] <= 0.0]
        if missing:
            raise RuntimeError(f"no {span} span in operations {missing}")
        return min(busy[o.index] for o in ops) * scale

    mb = workload.chip_bytes_per_op / 1e6
    fastest = min(o.seconds for o in ops) * scale
    return {
        "sym_per_s": workload.symbols_per_op / fastest,
        "op_s_min": fastest,
        "encode_MB_per_s": mb / best_seconds(workload.encode_span),
        "decode_MB_per_s": mb / best_seconds(workload.decode_span),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, ops: list[Op], rec) -> dict[str, float]:
    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    n = len(traced)
    t = tracer.totals(rec, {o.index for o in traced})
    c = Counter()
    for o in traced:
        c.update(rec.counts[o.index])

    def ratio(a, b):
        return a / b if b else 0.0

    perm_s, perms = t.busy["stego.permutation"], t.calls["stego.permutation"]
    despread_s = t.busy["chipmap.despread"]
    outside_layers = sum(v for k, v in t.self_time.items() if k == "op" or k.startswith("bench."))
    extracted = c["pipeline.extract_exact"] + c["pipeline.extract_fallback"]
    metrics = {
        "trace.op_s": ratio(sum(o.seconds for o in traced), n),
        "trace.ops": n,
        "trace.overhead_frac": statistics.median(o.seconds / o.calibration_s for o in traced)
        / statistics.median(o.seconds / o.calibration_s for o in plain) - 1.0,
        "trace.unattributed_frac": ratio(outside_layers, t.busy["op"]),
        "stego.keystream_s": perm_s / n,
        "stego.perm_calls": perms / n,
        "stego.us_per_perm": ratio(perm_s * 1e6, perms),
        "stego.perm_per_symbol": perms / (n * workload.symbols_per_op),
        "chipmap.despread_s": despread_s / n,
        "chipmap.despread_sym_per_s": ratio(c["chipmap.despread_symbols"], despread_s),
        "channel.transmit_s": t.busy["channel.transmit"] / n,
        "channel.flips": c["channel.flips"] / n,
        "channel.flip_ratio": ratio(c["channel.flips"], c["channel.expected_flips"]),
        "pipeline.schedule_s": t.busy["pipeline.embedding_schedule"] / n,
        "pipeline.slot_fraction": ratio(c["pipeline.slots"], c["pipeline.schedule_symbols"]),
        "pipeline.requested_rate": ratio(
            c["pipeline.requested_slots"], c["pipeline.schedule_symbols"]
        ),
        "pipeline.encode_s": t.busy["pipeline.encode_stream"] / n,
        "pipeline.encode_self_s": t.self_time["pipeline.encode_stream"] / n,
        "pipeline.decode_s": t.busy["pipeline.decode_stream"] / n,
        "pipeline.decode_self_s": t.self_time["pipeline.decode_stream"] / n,
        "pipeline.extract_exact": c["pipeline.extract_exact"] / n,
        "pipeline.extract_fallback": c["pipeline.extract_fallback"] / n,
        "pipeline.exact_ratio": ratio(c["pipeline.extract_exact"], extracted),
    }
    for w in range(tracer.DIFF_WEIGHT_TOP + 1):
        bucket = f"pipeline.diff_weight.{tracer.weight_bucket(w)}"
        metrics[bucket] = c[bucket] / n
    metrics.update({
        "pipeline.sim_self_s": t.self_time["pipeline.run_simulation"] / n,
        "fileio.read_s": t.busy["fileio.read"] / n,
        "fileio.write_s": t.busy["fileio.write"] / n,
        "fileio.bytes": c["fileio.bytes"] / n,
        "analysis.curve_s": t.busy["analysis.curve"] / n,
        "analysis.points": c["analysis.points"] / n,
        "cli.self_s": t.self_time["cli.main"] / n,
    })
    return metrics


def tail(seconds: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(seconds)
    if n <= 10:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": sorted(seconds)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    # warm the lru caches so no operation pays for the first table build
    stego.build_codebook()
    chipmap.standard_code_set()
    chipmap.code_matrix()

    workload = make_workloads()[args.workload]
    rec = tracer.SpanRecorder()
    probes = SetupProbes(SETUP_PROBES, args.seconds)
    ops = run_loop(workload, args.seed, args.seconds, bool(args.trace), args.scratch, rec, probes)
    probes.finish()
    if args.trace:
        metrics = per_layer(workload, ops, rec)
        metrics["stego.codebook_s"] = probes.median("codebook_s")
    else:
        metrics = end_to_end(workload, ops, rec)
        metrics["setup_s"] = probes.median("setup_s")

    bad_digests = gate.mismatches(gate.compute(args.scratch))
    failed_ops = [o for o in ops if o.errors]
    attempted = len(ops) + len(gate.PINS)
    failed = len(failed_ops) + len(bad_digests)
    if args.trace:
        metrics["failed_frac"] = failed / attempted
    for o in failed_ops[:MAX_REPORTED_ERRORS]:
        print(f"operation {o.index} failed:\n  " + "\n  ".join(o.errors), file=sys.stderr)
    for name in bad_digests:
        print(f"wire-contract digest {name} does not match its pin", file=sys.stderr)
    if args.spans_out is not None:
        rec.write_csv(args.spans_out)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "package_version": dsss_stego.__version__,
            "ops": len(ops),
            "traced_ops": sum(o.traced for o in ops),
            "failed_ops": len(failed_ops),
            "bad_digests": bad_digests,
            "op_seconds": [o.seconds for o in ops],
            "calibration_seconds": [o.calibration_s for o in ops],
            "speed_scale": speed_scale(ops),
            "op_s_p50": statistics.median(o.seconds for o in ops if not o.traced),
            "op_s_tail": tail([o.seconds for o in ops if not o.traced]),
            "setup_probes": probes.samples,
            "symbols_per_op": workload.symbols_per_op,
            "chip_bytes_per_op": workload.chip_bytes_per_op,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
