"""The four closed-loop workloads.

Each workload makes one operation's inputs from a seeded generator, runs
the operation through the package's public API, and checks its outputs.
The per-operation input sizes are part of a workload's identity; changing
them makes a new workload.  They are small (operations of about 0.1-0.3 s)
because the end-to-end figures come from the fastest operation of a run
(see speed.py), and on a shared host a fast moment more often covers a
short operation.
Why each workload exists:

- sim-clean: carrier-only traffic.  Despreading and the channel do the
  work; the keystream, schedule, embed and extract layers do none, so it
  is the workload on which a ``stego`` optimisation must change nothing.
- sim-covert: covert load in a noisy channel.  The keyed permutation
  stream dominates, the fractional rate drives the schedule register,
  and most extractions take the nearest-pattern fallback.
- file-roundtrip: the CLI encode and decode of chip files at full covert
  capacity.  The only user of ``fileio``; every extraction matches exactly
  and the schedule is short-circuited.
- sweep-grid: many short simulations plus the analytic curve on the same
  grid, the way the paper's figures are produced.  It exposes per-call
  fixed costs and is the only user of ``analysis``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dsss_stego
from dsss_stego import cli
from dsss_stego.channel import ChannelParams
from dsss_stego.fileio import HEADER_SIZE

CHIPS_PER_SYMBOL = 32
CHIP_BYTES_PER_SYMBOL = CHIPS_PER_SYMBOL // 8
BITS_PER_SYMBOL = 4
SNR_DB = 0.0


def _new_key(rng: np.random.Generator) -> dsss_stego.StegoKey:
    return dsss_stego.StegoKey(int(rng.integers(1, 1 << 16)))


def _new_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63))


class Checks:
    """Collects the reasons an operation's output is wrong."""

    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


@dataclass
class SimInput:
    config: dsss_stego.SimConfig
    slots: int


class SimWorkload:
    """One ``run_simulation`` call at a fixed size, SNR and embed rate."""

    encode_span = "pipeline.encode_stream"
    decode_span = "pipeline.decode_stream"

    def __init__(self, name: str, num_symbols: int, embed_rate: float):
        self.name = name
        self.num_symbols = num_symbols
        self.embed_rate = embed_rate
        self.symbols_per_op = num_symbols
        self.chip_bytes_per_op = CHIP_BYTES_PER_SYMBOL * num_symbols

    def make_input(self, rng: np.random.Generator, scratch: Path) -> SimInput:
        key = _new_key(rng)
        config = dsss_stego.SimConfig(
            num_symbols=self.num_symbols,
            channel=ChannelParams.from_snr_db(SNR_DB),
            key=key,
            embed_rate=self.embed_rate,
            rng_seed=_new_seed(rng),
        )
        mask = dsss_stego.embedding_schedule(key, self.embed_rate, self.num_symbols)
        return SimInput(config, int(np.count_nonzero(mask)))

    def run(self, inp: SimInput, rec) -> dsss_stego.SimReport:
        return dsss_stego.run_simulation(inp.config)

    def check(self, inp: SimInput, report: dsss_stego.SimReport, counts) -> list[str]:
        c = Checks()
        n = self.num_symbols
        cfg = inp.config
        c.expect(report.num_symbols == n, f"num_symbols {report.num_symbols} != {n}")
        c.expect(report.chips_sent == CHIPS_PER_SYMBOL * n, f"chips_sent {report.chips_sent}")
        c.expect(report.symbols_sent == n, f"symbols_sent {report.symbols_sent}")
        c.expect(
            report.stego_symbols_sent == inp.slots,
            f"stego_symbols_sent {report.stego_symbols_sent} != {inp.slots} scheduled slots",
        )
        c.expect(0 <= report.chip_errors <= report.chips_sent, "chip_errors out of range")
        c.expect(0 <= report.symbol_errors <= n, "symbol_errors out of range")
        c.expect(
            report.carrier_bit_errors <= BITS_PER_SYMBOL * report.symbol_errors,
            "more carrier bit errors than 4 per symbol error",
        )
        c.expect(
            report.stego_symbol_errors <= report.stego_symbols_sent
            and report.stego_exact_count <= report.stego_symbols_sent,
            "covert counts exceed covert symbols sent",
        )
        c.expect(report.key_hex == cfg.key.hex, "report names another key")
        c.expect(report.rng_seed == cfg.rng_seed, "report names another seed")
        c.expect(report.p_chip == cfg.channel.p_chip, "report names another p_chip")
        if "channel.flips" in counts:
            c.expect(
                counts["channel.flips"] == report.chip_errors,
                f"channel flipped {counts['channel.flips']} chips, report says "
                f"{report.chip_errors}",
            )
        if "pipeline.extract_exact" in counts or "pipeline.extract_fallback" in counts:
            # random payloads fill every scheduled slot, so every slot is tallied
            c.expect(
                counts["pipeline.extract_exact"] == report.stego_exact_count,
                f"{counts['pipeline.extract_exact']} exact extractions, report says "
                f"{report.stego_exact_count}",
            )
        return c.errors


@dataclass
class FileInput:
    key: str
    data: bytes
    covert: bytes
    data_in: Path
    covert_in: Path
    chips: Path
    data_out: Path
    covert_out: Path
    diag: Path


class FileRoundtrip:
    """``cli.main encode`` then ``cli.main decode`` at full covert capacity."""

    name = "file-roundtrip"
    encode_span = "bench.encode"
    decode_span = "bench.decode"

    def __init__(self, payload_bytes: int):
        self.payload_bytes = payload_bytes
        self.symbols_per_op = payload_bytes * 8 // BITS_PER_SYMBOL
        self.chip_bytes_per_op = HEADER_SIZE + CHIP_BYTES_PER_SYMBOL * self.symbols_per_op

    def make_input(self, rng: np.random.Generator, scratch: Path) -> FileInput:
        inp = FileInput(
            key=_new_key(rng).hex,
            data=rng.bytes(self.payload_bytes),
            covert=rng.bytes(self.payload_bytes),
            **{
                f: scratch / f"roundtrip.{f}"
                for f in ("data_in", "covert_in", "chips", "data_out", "covert_out", "diag")
            },
        )
        for path in (inp.chips, inp.data_out, inp.covert_out, inp.diag):
            path.unlink(missing_ok=True)
        inp.data_in.write_bytes(inp.data)
        inp.covert_in.write_bytes(inp.covert)
        return inp

    def run(self, inp: FileInput, rec) -> tuple[int, int]:
        with rec.span("bench.encode"):
            rc_encode = cli.main([
                "encode", "--data", str(inp.data_in), "--stego", str(inp.covert_in),
                "--key", inp.key, "--embed-rate", "1", "--out", str(inp.chips),
            ])
        with rec.span("bench.decode"):
            rc_decode = cli.main([
                "decode", "--in", str(inp.chips), "--data-out", str(inp.data_out),
                "--stego-out", str(inp.covert_out), "--diag-out", str(inp.diag),
                "--key", inp.key, "--embed-rate", "1",
            ])
        return rc_encode, rc_decode

    def check(self, inp: FileInput, codes: tuple[int, int], counts) -> list[str]:
        c = Checks()
        c.expect(codes == (0, 0), f"exit codes {codes}")
        if c.errors:
            return c.errors
        size = inp.chips.stat().st_size
        c.expect(size == self.chip_bytes_per_op, f"chip file is {size} bytes")
        c.expect(inp.data_out.read_bytes() == inp.data, "decoded data differs from input")
        c.expect(inp.covert_out.read_bytes() == inp.covert, "decoded covert differs from input")
        with inp.diag.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        c.expect(len(rows) == self.symbols_per_op, f"{len(rows)} diag rows")
        c.expect(
            all(r["exact"] == "1" and r["diff_weight"] == "5" for r in rows),
            "a noiseless slot did not extract as an exact weight-5 match",
        )
        return c.errors


@dataclass
class SweepInput:
    key: str
    seed: int
    sweep_csv: Path
    analytic_csv: Path


class SweepGrid:
    """``cli.main sweep`` over SNR x rate, then ``cli.main analytic`` on the grid."""

    name = "sweep-grid"
    encode_span = "pipeline.encode_stream"
    decode_span = "pipeline.decode_stream"
    snr_db = "0:6:1"
    snr_values = [float(s) for s in range(0, 7)]
    rates = [0.0, 0.5, 1.0]

    def __init__(self, symbols_per_point: int):
        self.symbols_per_point = symbols_per_point
        self.points = len(self.snr_values) * len(self.rates)
        self.symbols_per_op = self.points * symbols_per_point
        self.chip_bytes_per_op = CHIP_BYTES_PER_SYMBOL * self.symbols_per_op

    def make_input(self, rng: np.random.Generator, scratch: Path) -> SweepInput:
        inp = SweepInput(
            _new_key(rng).hex, _new_seed(rng), scratch / "sweep.csv", scratch / "analytic.csv"
        )
        inp.sweep_csv.unlink(missing_ok=True)
        inp.analytic_csv.unlink(missing_ok=True)
        return inp

    def run(self, inp: SweepInput, rec) -> tuple[int, int]:
        rates = ",".join(str(r) for r in self.rates)
        rc_sweep = cli.main([
            "sweep", "--snr-db", self.snr_db, "--embed-rate", rates,
            "--symbols-per-point", str(self.symbols_per_point),
            "--key", inp.key, "--seed", str(inp.seed), "--out", str(inp.sweep_csv),
        ])
        rc_analytic = cli.main([
            "analytic", "--snr-db", self.snr_db, "--embed-rate", rates,
            "--out", str(inp.analytic_csv),
        ])
        return rc_sweep, rc_analytic

    def check(self, inp: SweepInput, codes: tuple[int, int], counts) -> list[str]:
        c = Checks()
        c.expect(codes == (0, 0), f"exit codes {codes}")
        if c.errors:
            return c.errors
        grid = sorted((s, r) for s in self.snr_values for r in self.rates)
        with inp.sweep_csv.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        c.expect(
            [(float(r["snr_db"]), float(r["embed_rate"])) for r in rows] == grid,
            "sweep rows do not cover the grid in order",
        )
        c.expect(
            all(int(r["symbols"]) == self.symbols_per_point for r in rows),
            "a sweep point ran the wrong number of symbols",
        )
        c.expect(len({r["seed"] for r in rows}) == len(rows), "sweep points share a seed")
        for r in rows:
            rates = [float(r[k]) for k in ("cer", "carrier_ser", "carrier_ber", "stego_ser")]
            c.expect(all(0.0 <= v <= 1.0 for v in rates), f"rate out of [0, 1] in {r}")
            if float(r["embed_rate"]) == 0.0:
                c.expect(float(r["stego_ser"]) == 0.0, "covert errors at embed rate 0")
        with inp.analytic_csv.open(newline="") as fh:
            curve = list(csv.DictReader(fh))
        c.expect(
            [(float(r["snr_db"]), float(r["embed_rate"])) for r in curve] == grid,
            "analytic rows do not cover the grid in order",
        )
        for r in curve:
            if float(r["embed_rate"]) == 0.0:
                c.expect(r["ber_clean"] == r["ber_steg"], "rate-0 analytic row differs")
        return c.errors


def make_workloads() -> dict:
    return {
        w.name: w
        for w in (
            SimWorkload("sim-clean", num_symbols=100_000, embed_rate=0.0),
            SimWorkload("sim-covert", num_symbols=500, embed_rate=0.5),
            FileRoundtrip(payload_bytes=256),
            SweepGrid(symbols_per_point=50),
        )
    }
