"""Wire-contract gate: pinned SHA-256 digests of outputs that must stay bit-exact.

The contract covers the keyed permutation stream, the embedding schedule
mask, chip-file bytes and the ``simulate`` report text.  A refactor that
changes any of them breaks every chip file and every report written
before it, so every benchmark run recomputes these digests (outside the
timed region) and counts each mismatch as a failed check.

Run ``python3 bench/gate.py`` with ``src`` on ``PYTHONPATH`` to print the
digests of the code at hand.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import dsss_stego
from dsss_stego.channel import ChannelParams
from dsss_stego.fileio import write_chip_stream

PERM_KEYS = ("0001", "ACE1", "FFFF")
PERM_COUNT = 10_000
SCHEDULE_RATE = 0.37
SCHEDULE_SYMBOLS = 10_000
ENCODE_SYMBOLS = 1024
ENCODE_STEGO_BITS = 1002  # not a multiple of 4, so the zero padding is covered
ENCODE_RATE = 0.5
REF_KEY = "ACE1"
REF_SEED = 2011
# One reference configuration per simulation workload, at the workload's size.
SIM_REFS = {"sim-clean": (100_000, 0.0), "sim-covert": (500, 0.5)}

PINS = {
    "perm.0001": "9ef1c88e7cb7174b0beac4a880bc851a00d00533515ac5a1f14eddbb9bbae922",
    "perm.ACE1": "8206eb8427e3988d9fa3203c4554546c425eace0d0f33f0c328e25def47493f9",
    "perm.FFFF": "a81ab6c71cc590253ce23955a43d34912d06c2e97b46e831e1e4930b41ac0ad9",
    "schedule.0.37": "16d55d5d17ef23fec787973246d6edb64914e1ba750c3cc2b464b280af68cf49",
    "encode.chipfile": "905fd58f7739a1c6b147f0d35fd1d58e625fa952c819bcf0c274b0bb8b81b707",
    "report.sim-clean": "43d3008a93150c220f45712b5d83c69085ec5b7af43c8825295963eab60f6c63",
    "report.sim-covert": "2ced008cca67795efc91d38ac78054d6fc8c7ad9555380dbe501428f9ef558e9",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixed_bits(label: str, count: int) -> np.ndarray:
    """Payload bits from a SHA-256 counter stream, independent of numpy's RNGs."""
    stream = b"".join(
        hashlib.sha256(f"{label}:{i}".encode()).digest() for i in range(-(-count // 256))
    )
    return np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:count]


def _perm_digest(key_hex: str) -> str:
    schedule = dsss_stego.KeySchedule(dsss_stego.StegoKey.from_hex(key_hex))
    h = hashlib.sha256()
    for i in range(PERM_COUNT):
        h.update(bytes(schedule.permutation(i)))
    return h.hexdigest()


def _schedule_digest() -> str:
    key = dsss_stego.StegoKey.from_hex(REF_KEY)
    mask = dsss_stego.embedding_schedule(key, SCHEDULE_RATE, SCHEDULE_SYMBOLS)
    return _sha(np.packbits(np.asarray(mask, dtype=bool)).tobytes())


def _encode_digest(scratch: Path) -> str:
    chips = dsss_stego.encode_stream(
        _fixed_bits("data", 4 * ENCODE_SYMBOLS),
        _fixed_bits("stego", ENCODE_STEGO_BITS),
        dsss_stego.StegoKey.from_hex(REF_KEY),
        ENCODE_RATE,
    )
    path = scratch / "gate.chip"
    write_chip_stream(path, chips)
    return _sha(path.read_bytes())


def _report_digest(num_symbols: int, embed_rate: float) -> str:
    report = dsss_stego.run_simulation(
        dsss_stego.SimConfig(
            num_symbols=num_symbols,
            channel=ChannelParams.from_snr_db(0.0),
            key=dsss_stego.StegoKey.from_hex(REF_KEY),
            embed_rate=embed_rate,
            rng_seed=REF_SEED,
        )
    )
    return _sha(report.as_text().encode())


def compute(scratch: Path) -> dict[str, str]:
    digests = {f"perm.{k}": _perm_digest(k) for k in PERM_KEYS}
    digests[f"schedule.{SCHEDULE_RATE}"] = _schedule_digest()
    digests["encode.chipfile"] = _encode_digest(scratch)
    for name, (n, rate) in SIM_REFS.items():
        digests[f"report.{name}"] = _report_digest(n, rate)
    return digests


def mismatches(digests: dict[str, str], pins: dict[str, str] = PINS) -> list[str]:
    """Names of pinned digests that the computed ones do not reproduce."""
    return [name for name, want in pins.items() if digests.get(name) != want]


if __name__ == "__main__":
    run_dir = Path(__file__).resolve().parent.parent / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_dir) as tmp:
        print(json.dumps(compute(Path(tmp)), indent=2))
