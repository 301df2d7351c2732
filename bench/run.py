"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload sim-covert --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it benchmarks
the package under ``src/`` of that checkout, which needs no build step.

Each run starts a fresh worker process with ``src`` on PYTHONPATH and
OMP/OPENBLAS/MKL_NUM_THREADS=1 (in the child's environment only).  The
worker runs the workload's closed loop for ``--seconds``, several set-up
probes in fresh interpreters spread over the loop (their median is
``setup_s``), and the wire-contract gate.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records where and on what the figures
were measured.  Spans of a traced run go to
``.bench_run/spans-<workload>.csv``.

Exit codes: 0 when every operation and digest checked out, 1 when one did
not (the result line is still printed), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("sim-clean", "sim-covert", "file-roundtrip", "sweep-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 175.0


class RunError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_worker(cmd: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run the worker to completion and parse the JSON object on its last stdout line.

    The worker runs in its own session, so a timeout kills it together with
    any set-up probe it has started.
    """
    with subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError("the worker did not finish in time")
    if proc.returncode != 0:
        raise RunError(f"the worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("the worker printed nothing")
    return json.loads(lines[-1])


def _declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "dsss_stego" / "__init__.py").is_file():
        print(f"error: no dsss_stego package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = _child_env()
    load_start = os.getloadavg()[0]
    RUN_DIR.mkdir(exist_ok=True)
    scratch = RUN_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir()
    spans = RUN_DIR / f"spans-{args.workload}.csv"
    try:
        worker_cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", str(scratch),
        ]
        if trace:
            worker_cmd += ["--spans-out", str(spans)]
        result = _run_worker(worker_cmd, env, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = result["metrics"]
    units = _declared_units(trace)
    if set(values) != set(units):
        print(
            f"error: measured metrics {sorted(set(values) ^ set(units))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 2

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    print(json.dumps({"provenance": {
        **result["info"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "spans_csv": str(spans.relative_to(ROOT)) if trace else None,
    }}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
