import numpy as np
import pytest

from dsss_stego.analysis import ber_ieee
from dsss_stego import cli
from dsss_stego.cli import main


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_stats_contains_standard_values(tmp_path, capsys):
    assert run_cli("stats") == 0
    out = capsys.readouterr().out
    assert "d_min=12" in out
    assert "d_max=20" in out
    assert "fixed_weight=201376" in out
    assert "total=242824" in out
    assert "codebook_min_pairwise_distance=6" in out


def test_analytic_csv_schema_and_rate_zero(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli(
        "analytic", "--snr-db", "0,4", "--embed-rate", "0,1", "--out", str(out)
    ) == 0
    header, rows = read_csv(out)
    assert header == [
        "snr_db", "ber_clean", "ber_steg", "sensitivity_shift_db", "embed_rate", "pm_mode",
    ]
    assert len(rows) == 4
    # sorted by (snr_db, embed_rate); rate-0 rows mirror the clean curve
    for row in rows:
        if float(row[4]) == 0.0:
            assert row[1] == row[2]
            assert float(row[3]) == 0.0
        assert row[5] == "diff"
    snrs = [float(r[0]) for r in rows]
    assert snrs == sorted(snrs)


def test_analytic_reports_sensitivity_near_1_8db(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("analytic", "--snr-db", "4", "--embed-rate", "1", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert abs(float(rows[0][3]) - 1.8) <= 0.9


def test_analytic_clean_curve_monotone(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli(
        "analytic", "--snr-db=-10:10:1", "--embed-rate", "0", "--out", str(out)
    ) == 0
    _, rows = read_csv(out)
    clean = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(clean, clean[1:]))


def test_analytic_golden_row(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("analytic", "--snr-db", "0", "--embed-rate", "0", "--out", str(out)) == 0
    _, rows = read_csv(out)
    want = f"{ber_ieee(1.0):.9e}"
    assert rows[0] == [f"{0.0:.9e}", want, want, f"{0.0:.9e}", f"{0.0:.9e}", "diff"]


def test_analytic_bad_token_is_usage_error(capsys):
    assert run_cli("analytic", "--snr-db", "1,two,3") == 2
    assert "two" in capsys.readouterr().err


def test_simulate_noiseless(tmp_path):
    out = tmp_path / "report.txt"
    assert run_cli(
        "simulate", "--symbols", "2000", "--p-chip", "0", "--embed-rate", "1",
        "--seed", "7", "--out", str(out),
    ) == 0
    text = out.read_text()
    assert "carrier_ber=0.000000000e+00" in text
    assert "stego_ser=0.000000000e+00" in text


def test_simulate_reports_exactness_fraction_under_noise(tmp_path):
    # extraction is exact iff the channel left the symbol untouched, so
    # the exact fraction tracks (1 - p_chip)^32
    out = tmp_path / "report.txt"
    assert run_cli(
        "simulate", "--symbols", "20000", "--snr-db", "4", "--embed-rate", "1",
        "--seed", "5", "--out", str(out),
    ) == 0
    fields = dict(ln.split("=", 1) for ln in out.read_text().splitlines())
    p = float(fields["p_chip"])
    expected = (1 - p) ** 32
    sigma = (expected * (1 - expected) / 20000) ** 0.5
    assert abs(float(fields["stego_exact_fraction"]) - expected) < 4 * sigma
    assert float(fields["stego_ser"]) < 0.05


def test_simulate_identical_seeds_give_identical_reports(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["simulate", "--symbols", "3000", "--p-chip", "0.02", "--embed-rate", "0.5",
            "--seed", "11"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_snr_and_p_chip_mutually_exclusive():
    assert run_cli(
        "simulate", "--symbols", "10", "--p-chip", "0.1", "--snr-db", "4"
    ) == 2
    assert run_cli("simulate", "--symbols", "10") == 2


def test_simulate_rejects_bad_rate():
    assert run_cli(
        "simulate", "--symbols", "10", "--p-chip", "0.1", "--embed-rate", "1.5"
    ) == 2


def test_sweep_rows_sorted_and_deterministic(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--snr-db", "4,0", "--embed-rate", "1,0",
            "--symbols-per-point", "200", "--seed", "3"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header[:2] == ["snr_db", "embed_rate"]
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_encode_decode_round_trip_1kib(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.bin"
    stego = tmp_path / "stego.bin"
    data.write_bytes(rng.bytes(1024))
    stego.write_bytes(rng.bytes(1024))  # exactly fills a rate-1 schedule
    stream = tmp_path / "out.chips"
    assert run_cli(
        "encode", "--data", str(data), "--stego", str(stego),
        "--key", "ACE1", "--embed-rate", "1", "--out", str(stream),
    ) == 0
    assert stream.stat().st_size == 13 + 4 * 2048
    data_out = tmp_path / "data.out"
    stego_out = tmp_path / "stego.out"
    diag = tmp_path / "diag.csv"
    assert run_cli(
        "decode", "--in", str(stream), "--key", "ACE1", "--embed-rate", "1",
        "--data-out", str(data_out), "--stego-out", str(stego_out),
        "--diag-out", str(diag),
    ) == 0
    assert data_out.read_bytes() == data.read_bytes()
    assert stego_out.read_bytes() == stego.read_bytes()
    lines = diag.read_text().strip().split("\n")
    assert lines[0] == "slot_index,exact,diff_weight"
    assert len(lines) == 1 + 2048
    assert all(ln.endswith(",1,5") for ln in lines[1:])


def test_encode_empty_payload_is_header_only(tmp_path):
    data = tmp_path / "empty.bin"
    data.write_bytes(b"")
    stream = tmp_path / "empty.chips"
    assert run_cli(
        "encode", "--data", str(data), "--key", "ACE1", "--out", str(stream)
    ) == 0
    assert stream.stat().st_size == 13


def test_encode_overfull_stego_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.bin"
    stego = tmp_path / "stego.bin"
    data.write_bytes(b"\x00" * 4)       # 8 symbols -> 32 covert bits at rate 1
    stego.write_bytes(b"\x00" * 5)      # 40 covert bits
    assert run_cli(
        "encode", "--data", str(data), "--stego", str(stego),
        "--key", "ACE1", "--embed-rate", "1", "--out", str(tmp_path / "x"),
    ) == 3
    err = capsys.readouterr().err
    assert "40 bits" in err and "32 bits" in err


def test_decode_malformed_stream_names_offset(tmp_path, capsys):
    bad = tmp_path / "bad.chips"
    bad.write_bytes(b"NOPE" + b"\x01" + b"\x00" * 8)
    assert run_cli(
        "decode", "--in", str(bad), "--key", "ACE1",
        "--data-out", str(tmp_path / "d"),
    ) == 3
    assert "at byte 0" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    # any file that cannot be read or written is a data error, not a traceback
    data = tmp_path / "data.bin"
    data.write_bytes(b"\x12\x34")
    for argv in (
        ["encode", "--data", str(tmp_path / "nope.bin"), "--key", "ACE1",
         "--out", str(tmp_path / "x")],
        ["decode", "--in", str(tmp_path), "--key", "ACE1", "--data-out", str(tmp_path / "d")],
        ["encode", "--data", str(data), "--key", "ACE1", "--out", str(tmp_path)],
    ):
        assert run_cli(*argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: ")


def test_bad_key_is_usage_error():
    assert run_cli("simulate", "--symbols", "10", "--p-chip", "0", "--key", "ZZZZ") == 2
    assert run_cli("simulate", "--symbols", "10", "--p-chip", "0", "--key", "0000") == 2
    assert run_cli("simulate", "--symbols", "10", "--p-chip", "0", "--key", "0x1F") == 2


def test_symbols_below_one_is_usage_error(capsys):
    assert run_cli("simulate", "--symbols", "0", "--p-chip", "0") == 2
    assert "count must be in [1" in capsys.readouterr().err
    assert run_cli("simulate", "--symbols", "1.5", "--p-chip", "0") == 2


def test_symbols_per_point_below_one_is_usage_error(capsys):
    assert run_cli(
        "sweep", "--snr-db", "0", "--embed-rate", "0", "--symbols-per-point", "0"
    ) == 2
    assert "count must be in [1" in capsys.readouterr().err


def test_analytic_embed_rate_out_of_range_is_usage_error(capsys):
    assert run_cli("analytic", "--snr-db", "0", "--embed-rate", "0,1.5") == 2
    assert "embed rate must be in [0.0, 1.0]" in capsys.readouterr().err
    assert run_cli("sweep", "--snr-db", "0", "--embed-rate", "0:2:1",
                   "--symbols-per-point", "4") == 2


def test_analytic_embed_chips_out_of_range_is_usage_error(capsys):
    assert run_cli("analytic", "--snr-db", "0", "--embed-chips", "6") == 2
    assert "embed chips must be in [0, 5]" in capsys.readouterr().err
    assert run_cli("analytic", "--snr-db", "0", "--embed-chips", "-1") == 2


def test_non_finite_or_unusable_numbers_are_usage_errors():
    assert run_cli("simulate", "--symbols", "10", "--snr-db", "nan") == 2
    assert run_cli("simulate", "--symbols", "10", "--snr-db", "-4000") == 2
    assert run_cli("simulate", "--symbols", "10", "--p-chip", "0", "--seed", "-1") == 2
    assert run_cli("analytic", "--snr-db", "inf:inf:1") == 2


def test_oversized_range_is_usage_error(tmp_path, capsys):
    # about 1e9 values: expanding them one by one would exhaust memory
    out = tmp_path / "curve.csv"
    assert run_cli("analytic", "--snr-db", "0:1:1e-9", "--out", str(out)) == 2
    assert "range over 100000 values" in capsys.readouterr().err
    assert not out.exists()
    values = cli._parse_snr_list("0:0.99999:1e-5")  # exactly at the limit
    assert len(values) == 100_000 and values[-1] == 0.99999


def test_internal_value_error_is_not_a_data_error(monkeypatch):
    # only typed input errors map to exit 3; a bug must surface as itself
    import dsss_stego.cli as cli

    def broken(config):
        raise ValueError("internal invariant")

    monkeypatch.setattr(cli, "run_simulation", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        run_cli("simulate", "--symbols", "10", "--p-chip", "0")
