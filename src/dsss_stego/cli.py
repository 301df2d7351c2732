"""Command-line front end: stats | analytic | simulate | sweep | encode | decode.

Exit codes: 0 success, 2 usage error (options are range-checked while
parsing), 3 data error: a malformed chip file, a payload over capacity or
an input or output file that cannot be read or written.  Any other
exception is a bug and is not caught.
All numeric output uses scientific notation with 10 significant digits;
every command is deterministic given explicit seeds.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import PerformanceModelParams, sensitivity_curve, stego_alphabet_size
from .channel import ChannelParams
from .chipmap import code_set_stats
from .fileio import ChipStreamFormatError, read_chip_stream, write_chip_stream
from .pipeline import (
    CapacityError,
    SimConfig,
    decode_stream,
    encode_stream,
    run_simulation,
)
from .stego import PATTERN_WEIGHT, StegoKey, build_codebook

_SEED_STRIDE = 0x9E3779B97F4A7C15  # splitmix64 increment, for per-point seeds
_MAX_RANGE_VALUES = 100_000  # a start:stop:step range is expanded value by value


def _fmt(x: float) -> str:
    return f"{x:.9e}"


def _parse_key(text: str) -> StegoKey:
    try:
        return StegoKey.from_hex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _bounded(cast, name: str, low: float, high: float = math.inf):
    """argparse type: a finite `cast` value in [low, high], else a usage error."""

    def parse(text: str):
        try:
            v = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not (low <= v <= high and (cast is int or math.isfinite(v))):
            raise argparse.ArgumentTypeError(f"{name} must be in [{low}, {high}]: {text!r}")
        return v

    return parse


_parse_rate = _bounded(float, "embed rate", 0.0, 1.0)
_parse_p_chip = _bounded(float, "p-chip", 0.0, 0.5)
_parse_snr_db = _bounded(float, "snr-db", -300.0, 300.0)  # 10^(snr/10) stays a normal float
_parse_count = _bounded(int, "count", 1)
_parse_embed_chips = _bounded(int, "embed chips", 0, PATTERN_WEIGHT)


def _float_list(parse_one):
    """argparse type: comma list ("0,4,8") or inclusive range ("start:stop:step")."""

    def parse(text: str) -> list[float]:
        if ":" not in text:
            return [parse_one(token.strip()) for token in text.split(",")]
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range needs start:stop:step: {text!r}")
        start, stop = parse_one(parts[0]), parse_one(parts[1])
        step = _bounded(float, "range step", 1e-9)(parts[2])
        if (stop - start) / step + 1 > _MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(f"range over {_MAX_RANGE_VALUES} values: {text!r}")
        values: list[float] = []
        k = 0
        while start + k * step <= stop + 1e-12:
            values.append(round(start + k * step, 12))
            k += 1
        if not values:
            raise argparse.ArgumentTypeError(f"empty range: {text!r}")
        return values

    return parse


_parse_snr_list = _float_list(_parse_snr_db)
_parse_rate_list = _float_list(_parse_rate)


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_stats(args) -> int:
    stats = code_set_stats()
    book = build_codebook()
    lines = [
        f"d_min={stats.d_min}",
        f"d_mean={_fmt(stats.d_mean)}",
        f"d_max={stats.d_max}",
        f"avg_distance_shift={_fmt(analysis.delta_avg_distance(PATTERN_WEIGHT, stats.d_mean))}",
        f"codebook_patterns={len(book.patterns)}",
        f"codebook_min_pairwise_distance={book.min_pairwise_distance()}",
    ]
    for d_min in range(3, 13):
        rep = stego_alphabet_size(d_min)
        lines.append(
            f"alphabet d_min={rep.d_min} t={rep.t} total={rep.total_patterns} "
            f"fixed_weight={rep.fixed_weight_patterns} "
            f"bits_per_sequence={_fmt(rep.bits_per_sequence)}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_analytic(args) -> int:
    params = PerformanceModelParams(pm_mode=args.pm_mode, embed_chips=args.embed_chips)
    points = sensitivity_curve(args.snr_db, args.embed_rate, params)
    rows = ["snr_db,ber_clean,ber_steg,sensitivity_shift_db,embed_rate,pm_mode"]
    for p in points:
        rows.append(
            f"{_fmt(p.snr_db)},{_fmt(p.ber_clean)},{_fmt(p.ber_steg)},"
            f"{_fmt(p.sensitivity_shift_db)},{_fmt(p.embed_rate)},{p.pm_mode}"
        )
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _channel_from_args(args) -> ChannelParams:
    if args.snr_db is not None:
        return ChannelParams.from_snr_db(args.snr_db)
    return ChannelParams.direct(args.p_chip)


def _cmd_simulate(args) -> int:
    config = SimConfig(
        num_symbols=args.symbols,
        channel=_channel_from_args(args),
        key=args.key,
        embed_rate=args.embed_rate,
        rng_seed=args.seed,
    )
    report = run_simulation(config)
    _write_text(args.out, report.as_text())
    return 0


def _cmd_sweep(args) -> int:
    rows = [
        "snr_db,embed_rate,p_chip,cer,carrier_ser,carrier_ber,"
        "stego_ser,stego_exact_fraction,symbols,seed"
    ]
    points = sorted((snr, rate) for snr in args.snr_db for rate in args.embed_rate)
    for index, (snr, rate) in enumerate(points):
        seed = (args.seed + (index + 1) * _SEED_STRIDE) % (1 << 64)
        report = run_simulation(
            SimConfig(
                num_symbols=args.symbols_per_point,
                channel=ChannelParams.from_snr_db(snr),
                key=args.key,
                embed_rate=rate,
                rng_seed=seed,
            )
        )
        rows.append(
            f"{_fmt(snr)},{_fmt(rate)},{_fmt(report.p_chip)},{_fmt(report.cer)},"
            f"{_fmt(report.carrier_ser)},{_fmt(report.carrier_ber)},"
            f"{_fmt(report.stego_ser)},{_fmt(report.stego_exact_fraction)},"
            f"{report.symbols_sent},{seed}"
        )
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_encode(args) -> int:
    data_bits = np.unpackbits(np.frombuffer(Path(args.data).read_bytes(), dtype=np.uint8))
    if args.stego is not None:
        stego_bits = np.unpackbits(
            np.frombuffer(Path(args.stego).read_bytes(), dtype=np.uint8)
        )
    else:
        stego_bits = np.zeros(0, dtype=np.uint8)
    words = encode_stream(data_bits, stego_bits, args.key, args.embed_rate)
    write_chip_stream(args.out, words)
    return 0


def _cmd_decode(args) -> int:
    words = read_chip_stream(args.infile)
    decoded = decode_stream(words, args.key, args.embed_rate)
    Path(args.data_out).write_bytes(np.packbits(decoded.data_bits).tobytes())
    if args.stego_out is not None:
        Path(args.stego_out).write_bytes(np.packbits(decoded.stego_bits).tobytes())
    if args.diag_out is not None:
        rows = ["slot_index,exact,diff_weight"]
        rows += ["%d,%d,%d" % row for row in decoded.slots.tolist()]  # symbol_index, exact, weight
        Path(args.diag_out).write_text("\n".join(rows) + "\n")
    return 0


@functools.lru_cache(maxsize=1)  # argparse parsers are reusable; building one is costly
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsss-stego",
        description="Covert-channel codec and simulator for IEEE 802.15.4 DSSS codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="code-set distances and covert alphabet sizes")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("analytic", help="emit BER and sensitivity-shift curves as CSV")
    p.add_argument("--snr-db", type=_parse_snr_list, default=_parse_snr_list("-10:10:0.5"))
    p.add_argument("--embed-rate", type=_parse_rate_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    p.add_argument("--pm-mode", choices=("diff", "ratio"), default="diff")
    p.add_argument("--embed-chips", type=_parse_embed_chips, default=PATTERN_WEIGHT)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("simulate", help="one Monte Carlo run, flat key=value report")
    p.add_argument("--symbols", type=_parse_count, required=True)
    noise = p.add_mutually_exclusive_group(required=True)
    noise.add_argument("--p-chip", type=_parse_p_chip)
    noise.add_argument("--snr-db", type=_parse_snr_db)
    p.add_argument("--embed-rate", type=_parse_rate, default=0.0)
    p.add_argument("--key", type=_parse_key, default=StegoKey.from_hex("ACE1"))
    p.add_argument("--seed", type=_bounded(int, "seed", 0), default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo grid over SNR and embedding rate")
    p.add_argument("--snr-db", type=_parse_snr_list, required=True)
    p.add_argument("--embed-rate", type=_parse_rate_list, required=True)
    p.add_argument("--symbols-per-point", type=_parse_count, required=True)
    p.add_argument("--key", type=_parse_key, default=StegoKey.from_hex("ACE1"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("encode", help="spread payload files into a chip-stream file")
    p.add_argument("--data", required=True)
    p.add_argument("--stego")
    p.add_argument("--key", type=_parse_key, required=True)
    p.add_argument("--embed-rate", type=_parse_rate, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover payloads from a chip-stream file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--data-out", required=True)
    p.add_argument("--stego-out")
    p.add_argument("--diag-out")
    p.add_argument("--key", type=_parse_key, required=True)
    p.add_argument("--embed-rate", type=_parse_rate, default=0.0)
    p.set_defaults(func=_cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ChipStreamFormatError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
