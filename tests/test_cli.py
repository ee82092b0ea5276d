import argparse
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from paulimem import PureStateParams, __main__ as program, capacity, cli, oracle
from paulimem.closed_form import format_number
from paulimem.cli import _parse_grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


class TestParams:
    def test_illustration_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "params")
        assert code == 0
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert rows["eps_0"] == "1"
        assert rows["eps_1"] == "-0.4"
        assert rows["eps_2"] == "0"
        assert rows["eps_3"] == "0.2"
        assert rows["eps_11"] == "0.58"
        assert (rows["ordering_l"], rows["ordering_m"], rows["ordering_s"]) == ("1", "3", "2")

    def test_illustration_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "--format", "json", "params"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ordering"] == [1, 3, 2]
        assert payload["eps"][2] == 0.0
        assert len(payload["eps_matrix"]) == 4

    def test_identity_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "--family", "depolarizing", "--p", "0", "--mu", "0", "params"
        )
        assert code == 0
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert all(rows[f"eps_{n}"] == "1" for n in range(4))

    def test_non_normalized_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "--q", "0.5,0.5,0.5,0.5", "--mu", "0", "params")
        assert code == 2
        assert out == ""
        assert "sum" in err

    def test_params_needs_mu(self, capsys):
        code, _, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "params")
        assert code == 2
        assert "--mu" in err


class TestThresholds:
    def test_illustration(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "thresholds")
        assert code == 0
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert round(float(rows["mu_star"]), 2) == 0.39
        assert float(rows["mu_ml"]) == 0.375
        assert rows["degenerate"] == "false"

    def test_mp_family(self, capsys):
        code, out, _ = run_cli(capsys, "--family", "mp", "--p", "0.4", "thresholds")
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert code == 0
        assert rows["mu_star"] == "0.6"

    def test_identity_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "1,0,0,0", "thresholds")
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert code == 0
        assert rows["degenerate"] == "true"
        assert rows["mu_ml"] == "0"


class TestCapacityAndSweep:
    def test_capacity_single(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "1", "capacity")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][0] == "mu"
        assert rows[1][1] == "entangled" or rows[1][1] == "tie"
        assert rows[1][2] == "1"

    def test_sweep_eleven_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.1", "sweep"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4".split(",")
        assert len(rows) == 12
        assert rows[-1][0] == "1" and rows[-1][2] == "1"

    def test_sweep_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "1:1:1", "sweep")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2
        assert rows[1][2] == "1"

    def test_bad_grid_exits_2(self, capsys):
        for grid in ("0.5:0.1:0.2", "0:nan:0.1", "a:1:0.1", "0:1e400:1", "0:1:0"):
            code, out, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", grid, "sweep")
            assert (code, out) == (2, "")
            assert err.startswith("error: argument --mu-grid: ") and err.count("\n") == 1

    def test_grid_steps_land_on_decimal_values(self):
        assert _parse_grid("0:1:0.1").tolist() == [k / 10 for k in range(11)]
        assert _parse_grid("0:1:0.01").tolist() == [k / 100 for k in range(101)]
        assert _parse_grid("0:1:0.125").tolist() == [k / 8 for k in range(9)]
        assert _parse_grid("0:1:0.3").tolist() == [0.0, 0.3, 0.6, 0.9]
        assert _parse_grid("0:1:0.6").tolist() == [0.0, 0.6, 1.0]  # end kept within half a step

    def test_grid_values_equal_the_decimal_loop(self):
        # Below 2^53 the grid is one integer array division; past it, a loop
        # over exact integers. Both must give float(min(start + k step, end))
        # of the exact rationals, with k up to floor((end - start) / step + 1/2).
        texts = ["0:1:0.1", "0:1:0.3", "0:1:0.6", "-0:0:1", "-0.0:1:0.25", "0.1:0.95:0.2",
                 "1e-3:2e-2:1E-3", "1E+2:1E+3:5E+1", "0.10:0.9:0.10", "-1.5:1.5:0.7",
                 # past 28 digits: Decimal's default context rounds these
                 "0:0.59999999999999999999999999999999:0.4",
                 "0.1179187036710610606005111833383125495852:"
                 "0.1179187036710610606005111833383125495852:0.1"]
        for d in range(18):  # integers that end below, at and past 2^53
            for first in (2**53 - 60, 2**53 - 21, 2**53 - 1, 2**53 + 3):
                start, end = (Decimal(x).scaleb(-d) for x in (first, first + 20))
                texts.append(f"{start}:{end}:{Decimal(3).scaleb(-d)}")
        rng = np.random.default_rng(53)
        for _ in range(400):
            d = int(rng.integers(0, 19))
            start = Decimal(int(rng.integers(-10**6, 10**9))).scaleb(-d)
            step = Decimal(int(rng.integers(1, 10**4))).scaleb(-int(rng.integers(0, 19)))
            end = start + step * (int(rng.integers(0, 6000)) * Decimal("0.01"))
            texts.append(f"{start}:{end}:{step}")
        # 40-digit starts within 1e-40 of the midpoint between two floats
        for x in rng.uniform(0, 1, 100):
            mid = (Fraction(x) + Fraction(np.nextafter(x, 2.0))) / 2
            digits = round(mid * 10**40) + int(rng.integers(-1, 2))
            texts.append(f"{digits}E-40:1:0.25")
        # ends 1e-35 either side of half a step past a grid value
        for k in range(20):
            for side in (-1, 1):
                texts.append(f"0:{(2 * k + 1) * 15 * 10**33 + side}E-35:0.3")
        for text in texts:
            start, end, step = (Fraction(Decimal(p)) for p in text.split(":"))
            n = math.floor((end - start) / step + Fraction(1, 2))
            want = [float(min(start + k * step, end)) for k in range(n + 1)]
            assert [x.hex() for x in _parse_grid(text)] == [x.hex() for x in want], text
        assert _parse_grid(texts[10]).tolist() == [0.0, 0.4]
        assert _parse_grid(texts[11]).tolist() == [float(texts[11].split(":")[0])]

    def test_grid_size_bound_checked_before_building(self, monkeypatch):
        # Only the count is computed before the check, so none of these
        # builds a list; 0:1:1e-12 would be 1e12 floats. The count stays a
        # Decimal: as an int, 0:1:1e-999999 took ~40 s to reject.
        for text in ("0:1:9.99e-7", "0:1:1e-12", "0:1:1e-300", "0:1:1e-400", "0:1:1e-999999"):
            with pytest.raises(argparse.ArgumentTypeError, match="more than 1000001") as exc:
                _parse_grid(text)
            assert len(str(exc.value)) < 100  # not the raw count, 401 digits at 1e-400
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 10)
        assert len(_parse_grid("0:0.9:0.1")) == 10
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid("0:1:0.1")

    def test_grid_size_bound_is_exact(self, monkeypatch):
        # At 28 digits these quotients round up to a half step, one point more than exact.
        grid = _parse_grid("0:0.10000004999999999999999999999999:0.0000001")
        assert len(grid) == 1_000_001 and grid[-1] == 0.1
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 2)
        assert _parse_grid("0:0.59999999999999999999999999999999:0.4").tolist() == [0.0, 0.4]
        with pytest.raises(argparse.ArgumentTypeError, match="more than 2 points"):
            _parse_grid("0:0.6:0.4")

    def test_grid_past_the_digit_bound_is_out_of_range(self):
        # Exact values need integers below 10^1100, and floats need values below
        # 2^1024; a grid past either exits 2.
        for text in ("1e-1100:1:0.5", "1e1100:1e1100:1", "0:1:0.5" + "0" * 1098 + "1",
                     "1e400:1e400:1"):
            with pytest.raises(argparse.ArgumentTypeError, match="grid out of range"):
                _parse_grid(text)
        assert _parse_grid("1e-1099:1:0.5").tolist() == [0.0, 0.5, 1.0]
        assert _parse_grid("0:1:0.5" + "0" * 1097 + "1").tolist() == [0.0, 0.5, 1.0]
        assert _parse_grid("0e-5000:1:0.5").tolist() == [0.0, 0.5, 1.0]  # zeros have no decimals

    def test_json_has_no_negative_zero(self, capsys):
        # A pure output spectrum has entropy +0.0; JSON must not print -0.0.
        for argv in (("--mu", "1", "capacity"), ("--mu-grid", "0:1:0.25", "sweep")):
            code, out, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--format", "json", *argv)
            assert code == 0
            assert '"entropy_bell": 0.0' in out
            assert "-0.0" not in out

    def test_sweep_needs_grid(self, capsys):
        code, _, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "sweep")
        assert code == 2
        assert "mu-grid" in err

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5",
            "--format", "json", "sweep",
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["mu"] for entry in payload] == [0.0, 0.5, 1.0]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5",
            "--out", str(target), "sweep",
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("mu,regime,")


class _SecondWriteFails:
    """A text stream whose second write raises OSError, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


class TestStreamedOutput:
    """sweep writes its text block by block; --out is replaced only once all is written."""

    # 10,001 rows: the header, then two blocks of rows.
    ARGV = ("--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.0001", "sweep")

    def _fail_second_file_write(self, monkeypatch):
        real_fdopen = os.fdopen
        monkeypatch.setattr(cli.os, "fdopen", lambda *a, **k: _SecondWriteFails(real_fdopen(*a, **k)))

    def _assert_write_error(self, code, err):
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
        assert "No space left on device" in lines[0]

    def test_sweep_is_written_block_by_block(self, monkeypatch):
        # CSV: the header and two blocks; JSON: two blocks and the closing bracket.
        for fmt in ("csv", "json"):
            writes = []
            monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
            assert main([*self.ARGV, "--format", fmt]) == 0
            assert len(writes) == 3

    def test_failed_stdout_write(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _SecondWriteFails(io.StringIO()))
        code, _, err = run_cli(capsys, *self.ARGV)
        self._assert_write_error(code, err)

    def test_failed_write_leaves_no_new_file(self, capsys, monkeypatch, tmp_path):
        self._fail_second_file_write(monkeypatch)
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(tmp_path / "sweep.csv"))
        self._assert_write_error(code, err)
        assert out == ""
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "sweep.json"
        target.write_bytes(b"old bytes\n")
        self._fail_second_file_write(monkeypatch)
        code, _, err = run_cli(capsys, *self.ARGV, "--format", "json", "--out", str(target))
        self._assert_write_error(code, err)
        assert os.listdir(tmp_path) == ["sweep.json"]
        assert target.read_bytes() == b"old bytes\n"

    def test_file_modes_are_those_open_gives(self, capsys, tmp_path):
        # A new file gets 0o666 less the umask; an existing one keeps its mode.
        created, existing = tmp_path / "new.csv", tmp_path / "old.csv"
        existing.write_text("old")
        existing.chmod(0o604)
        old_umask = os.umask(0o027)
        try:
            for target in (created, existing):
                code, _, _ = run_cli(capsys, *self.ARGV, "--out", str(target))
                assert code == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(created.stat().st_mode) == 0o666 & ~0o027
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert existing.read_bytes() == created.read_bytes()

    def test_symlinked_out_is_written_through(self, capsys, tmp_path):
        real = tmp_path / "data" / "sweep.csv"
        real.parent.mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, _, _ = run_cli(capsys, *self.ARGV, "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert os.listdir(real.parent) == ["sweep.csv"]
        assert real.read_text(encoding="utf-8").startswith("mu,regime,")

    def test_out_without_a_file_name(self, capsys, tmp_path):
        for path in (f"{tmp_path / 'new'}/", ""):
            code, _, err = run_cli(capsys, *self.ARGV, "--out", path)
            assert code == 2 and err.startswith("error: cannot write output: ")
        assert os.listdir(tmp_path) == []

    def test_fifo_out_is_written_in_place(self, capsys, tmp_path):
        # What is not a regular file (a pipe, /dev/null) cannot be renamed onto.
        fifo = tmp_path / "sweep.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, *self.ARGV, "--out", str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got[0].startswith(b"mu,regime,") and got[0].count(b"\n") == 10_002

    # The CSV digest is that of the parent of the block writers. The JSON one
    # differs from it only in the mu_ml and mu_star lines, now 0.375 and
    # 0.3875636907135297, each within an ulp of the exact root, and in 151 rows
    # whose entropies and c2 moved by a few ulps when every closed-form log2
    # became the C library's (math.log2): the JSON bytes follow the platform's
    # libm, whatever SIMD path numpy takes (test_sweep_bytes_do_not_follow_numpy_simd).
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "4f5ff7d55593a5a90332d7de543f39ca1fcfef7cc8ef9c53da08eeb530154699"),
        ("json", "eecd98317a1e2d04d4279df0ea59c0713e3151587d467c0457bb35f4839baa27"),
    ])
    def test_large_sweep_digest_pinned(self, capsys, tmp_path, fmt, digest):
        target = tmp_path / f"sweep.{fmt}"
        argv = ("--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.00001", "--format", fmt, "sweep")
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_sweep_bytes_do_not_follow_numpy_simd(self, tmp_path):
        # The sweep of test_large_sweep_digest_pinned, in two processes: numpy's
        # dispatch held to AVX2 and below, and its default. On an AVX-512 CPU
        # numpy 2.4's np.log2 rounds differently on the two paths, and moved
        # 151 rows of the JSON while the closed form used it.
        limited = dict(os.environ, NPY_ENABLE_CPU_FEATURES=AVX2_AND_BELOW)
        probes = [subprocess.run([sys.executable, "-c", ENABLED_CPU_FEATURES], env=env,
                                 capture_output=True, text=True)
                  for env in (limited, os.environ)]
        if probes[0].returncode != 0:
            pytest.skip(f"numpy refuses NPY_ENABLE_CPU_FEATURES={AVX2_AND_BELOW!r}: "
                        f"{probes[0].stderr.strip().splitlines()[-1:]}")
        assert probes[1].returncode == 0, probes[1].stderr
        if probes[0].stdout == probes[1].stdout:
            pytest.skip(f"numpy {np.__version__} enables the same features with its dispatch "
                        f"held to AVX2 and below (no AVX-512 here, or the variable is unknown)")
        script = (
            "import sys\n"
            "from paulimem.cli import main\n"
            "for fmt in ('csv', 'json'):\n"
            "    assert main(['--q', '0.2,0.1,0.3,0.4', '--mu-grid', '0:1:0.00001', '--format',\n"
            "                 fmt, 'sweep', '--out', f'{sys.argv[1]}.{fmt}']) == 0\n"
        )
        runs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path / name)], env=env,
                                 stderr=subprocess.PIPE)
                for name, env in (("limited", limited), ("default", os.environ))]
        for proc in runs:
            _, err = proc.communicate()
            assert proc.returncode == 0, err
        for fmt in ("csv", "json"):
            limited_bytes = (tmp_path / f"limited.{fmt}").read_bytes()
            assert limited_bytes.count(b"\n") > 100_001
            assert limited_bytes == (tmp_path / f"default.{fmt}").read_bytes(), fmt


# numpy's CPU features up to AVX2, for NPY_ENABLE_CPU_FEATURES; every feature above
# them, AVX-512 included, is then off for numpy's dispatch.
AVX2_AND_BELOW = "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42 AVX F16C FMA3 AVX2"
# Prints the CPU features numpy has enabled (numpy 2 moved numpy.core to numpy._core).
ENABLED_CPU_FEATURES = (
    "try:\n"
    "    from numpy._core._multiarray_umath import __cpu_features__ as f\n"
    "except ImportError:\n"
    "    from numpy.core._multiarray_umath import __cpu_features__ as f\n"
    "print(sorted(name for name, on in f.items() if on))\n"
)


class TestConfigFile:
    def test_q_config(self, capsys, tmp_path):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.5}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "params")
        assert code == 0
        rows = dict((r[0], r[1]) for r in csv_rows(out)[1:])
        assert rows["eps_1"] == "-0.4"
        assert rows["eps_11"] == "0.58"  # mu read from the file

    def test_family_config_with_mu_override(self, capsys, tmp_path):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"family": "depolarizing", "p": 0.25, "mu": 0.9}))
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--mu", "0", "--format", "json", "params"
        )
        assert code == 0
        assert json.loads(out)["mu"] == 0.0

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        for content in (
            b"{not json",
            b'{"q": [0.2, 0.1, 0.3, 0.4], "mu": "\xff"}',  # not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        ):
            cfg.write_bytes(content)
            code, _, err = run_cli(capsys, "--config", str(cfg), "--mu", "0.5", "params")
            assert code == 2
            assert "malformed" in err

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--config", str(tmp_path / "nope.json"), "params")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds"],
            ["--mu-grid", "0:1:0.5", "sweep"],
            ["--mu-grid", "0.5:1:0.5", "--grid-points", "3", "--restarts", "2", "verify"],
        ],
    )
    def test_config_without_mu_where_mu_is_not_needed(self, capsys, tmp_path, argv):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [0.2, 0.1, 0.3, 0.4]}))
        from_config = run_cli(capsys, "--config", str(cfg), *argv)
        assert from_config == run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", *argv)
        assert from_config[0] == 0

    def test_config_without_mu_where_mu_is_needed(self, capsys, tmp_path):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [0.2, 0.1, 0.3, 0.4]}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "capacity")
        assert (code, out) == (2, "")
        assert "missing 'mu'" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_mu_reaches_verify(self, capsys, tmp_path, fmt):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.5}))
        search = ("--grid-points", "2", "--restarts", "2", "--seed", "1", "--format", fmt)
        from_config = run_cli(capsys, "--config", str(cfg), *search, "verify")
        assert from_config == run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", *search,
                                      "verify")
        assert from_config[0] == 0 and from_config[1]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_verify_without_mu_exits_2(self, capsys, tmp_path, source):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [0.2, 0.1, 0.3, 0.4]}))
        channel = ("--q", "0.2,0.1,0.3,0.4") if source == "flags" else ("--config", str(cfg))
        assert run_cli(capsys, *channel, "verify") == (
            2, "", "error: missing 'mu': this command needs --mu or a config with 'mu'\n"
        )

    def test_config_conflicts_with_q(self, capsys, tmp_path):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [1, 0, 0, 0], "mu": 0.0}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "--q", "1,0,0,0", "params")
        assert (code, out) == (2, "")
        assert err == "error: argument --q: not allowed with argument --config\n"


class TestErrorContract:
    """Bad input ends in one `error:` line and exit 2, never a traceback."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "paulimem", *argv], capture_output=True, text=True, check=False
        )

    def _assert_one_error_line(self, proc):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "cfg",
        [
            {"q": [0.2, 0.1, 0.3, 0.4], "mu": "abc"},
            {"family": "depolarizing", "p": "x", "mu": 0.3},
        ],
    )
    def test_non_numeric_config_value(self, tmp_path, cfg):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(cfg))
        self._assert_one_error_line(self._run("--config", str(path), "capacity"))

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"family": "mp", "p": 0.2, "mu": 0.3, "famly": 1}, "key 'famly' is not one of"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.3, "p": 0.9}, "key 'p' is not one of"),
        ],
        ids=["unknown-key", "p-beside-q"],
    )
    def test_config_key_never_read(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "--config", str(path), "capacity")
        self._assert_one_error_line(subprocess.CompletedProcess([], code, out, err))
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--q", "0.2,0.1,0.3,0.4", "--p", "0.3", "--mu", "0.5"), "--p is read only with"),
            (("--config", "CFG", "--p", "0.3"), "--p is read only with --family"),
            (("--p", "0.3", "--mu", "0.5"), "--p is read only with --family"),
            (("--family", "mp", "--mu", "0.5"), "missing 'p'"),
            (("--q", "0.2,0.1,0.3,0.4"), "missing 'mu': this command needs --mu or a config"),
            (("--mu", "0.5"), "no channel given"),
        ],
        ids=["p-with-q", "p-with-config", "p-alone", "family-without-p", "no-mu", "no-channel"],
    )
    def test_channel_flags(self, capsys, tmp_path, argv, message):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"family": "mp", "p": 0.2, "mu": 0.3}))
        argv = [str(path) if a == "CFG" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "capacity")
        self._assert_one_error_line(subprocess.CompletedProcess(argv, code, out, err))
        assert message in err

    def test_unwritable_out(self, tmp_path):
        target = tmp_path / "missing" / "sweep.csv"
        proc = self._run(
            "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5", "sweep", "--out", str(target)
        )
        self._assert_one_error_line(proc)
        assert "cannot write output" in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--mu", "abc", "capacity"), "argument --mu: invalid float value: 'abc'"),
            (("--q", "0.2,0.1", "--mu", "0.5", "capacity"), "expected 4 comma-separated"),
            (("--mu-grid", "0:1:1e-7", "sweep"), "grid has more than 1000001 points"),
            (("--mu", "0.5", "--restarts", "1.5", "verify"), "invalid int value: '1.5'"),
            # exponents past Decimal's range overflow the point count
            (("--mu-grid", "0:1:1e-999999999", "sweep"), "grid out of range"),
            (("--mu-grid", "0:1e999999999:1", "sweep"), "grid out of range"),
            # ... and so do grid values past it, when the list is built
            (("--mu-grid", "1e999999999:1e999999999:1", "sweep"), "grid out of range"),
            (("--mu-grid", "1e999999999:1e999999999:1e999999999", "sweep"), "grid out of range"),
            (("--mu", "0.5", "--seed", "1", "capacity"), "capacity does not read --seed"),
            (("--mu", "0.5", "--mu-grid", "0:1:0.5", "verify"), "not allowed with argument --mu"),
        ],
        ids=[
            "mu-abc", "q-two-values", "grid-over-bound", "restarts-float",
            "grid-tiny-step", "grid-huge-end", "grid-huge-value", "grid-huge-all",
            "unread-flag", "mu-with-grid",
        ],
    )
    def test_bad_flag(self, capsys, argv, message):
        argv = argv if "--q" in argv else ("--q", "0.2,0.1,0.3,0.4", *argv)
        proc = self._run(*argv)
        self._assert_one_error_line(proc)
        assert message in proc.stderr
        # In-process too: main returns 2 with the same one line.
        assert run_cli(capsys, *argv) == (2, "", proc.stderr)

    def test_help_is_the_only_system_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: paulimem")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--mu", "0.5", "--seed", "-1"), "seed must be nonnegative"),
            (("--mu-grid", "0:1.5:0.5"), "mu outside [0, 1]: 1.5"),
            (("--mu", "0.5", "--grid-points", "5"), "grid_points_per_angle above 4"),
            (("--mu", "0.5", "--grid-points", "10"), "grid_points_per_angle above 4"),
            (("--mu", "0.5", "--grid-points", "10" * 6), "grid_points_per_angle above 4"),
            (("--mu", "0.5", "--grid-points", "0"), "grid_points_per_angle must be positive"),
            (("--mu", "0.5", "--restarts", "0"), "restarts must be positive"),
            (("--mu", "0.5", "--restarts", "1001"), "restarts above 1000"),
        ],
    )
    def test_bad_verify_input_runs_no_search(self, capsys, monkeypatch, argv, message):
        searches = []
        monkeypatch.setattr(oracle, "min_entropy_bruteforce", lambda *a: searches.append(a))
        code, out, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", *argv, "verify")
        self._assert_one_error_line(subprocess.CompletedProcess(argv, code, out, err))
        assert message in err
        assert searches == []


# A valid value for each memory and search flag, keyed by its argparse dest.
FLAG_ARGV = {
    "mu": ("--mu", "0.5"),
    "mu_grid": ("--mu-grid", "0:1:0.5"),
    "seed": ("--seed", "1"),
    "grid_points": ("--grid-points", "2"),
    "restarts": ("--restarts", "2"),
}
READ = [(command, dest) for command, (_, reads) in cli._COMMANDS.items() for dest in reads]
UNREAD = [(command, dest) for command, (_, reads) in cli._COMMANDS.items()
          for dest in FLAG_ARGV if dest not in reads]


class TestFlagsEachCommandReads:
    """Each command takes the memory and search flags that cli._COMMANDS lists for it."""

    def _run(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        # argparse's errors too: a return of 2 and one `error:` line
        assert code == 0 or (code == 2 and err.startswith("error:") and err.count("\n") == 1)
        return code, out, err

    def _nothing_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran past the flag check")

        monkeypatch.setattr(cli, "channel_from_config", refuse)
        # sweep and verify import these from their modules when they run.
        monkeypatch.setattr(capacity, "capacity_sweep", refuse)
        monkeypatch.setattr(oracle, "verify_optimality_grid", refuse)

    def test_the_table_covers_every_flag(self):
        assert set(FLAG_ARGV) == {dest for _, reads in cli._COMMANDS.values() for dest in reads}

    @pytest.mark.parametrize("command, dest", UNREAD)
    def test_unread_flag_exits_2(self, capsys, monkeypatch, tmp_path, command, dest):
        self._nothing_runs(monkeypatch)
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")
        flag, value = FLAG_ARGV[dest]
        code, out, err = self._run(
            capsys, "--q", "0.2,0.1,0.3,0.4", flag, value, "--out", str(target), command
        )
        assert (code, out, err) == (2, "", f"error: {command} does not read {flag}\n")
        assert target.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_mu_with_mu_grid_exits_2(self, capsys, monkeypatch, tmp_path, command):
        self._nothing_runs(monkeypatch)
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")
        code, out, err = self._run(
            capsys, "--q", "0.2,0.1,0.3,0.4", *FLAG_ARGV["mu"], *FLAG_ARGV["mu_grid"],
            "--out", str(target), command,
        )
        assert (code, out) == (2, "")
        assert err == "error: argument --mu-grid: not allowed with argument --mu\n"
        assert target.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("command, dest", READ)
    def test_read_flag_is_accepted(self, capsys, command, dest):
        # The command's first flag gives its memory, unless dest is a memory flag.
        memory = [] if dest in ("mu", "mu_grid") else FLAG_ARGV[cli._COMMANDS[command][1][0]]
        code, out, err = self._run(
            capsys, "--q", "0.2,0.1,0.3,0.4", *memory, *FLAG_ARGV[dest], command
        )
        assert (code, err) == (0, "")
        assert out

    def test_grid_search_gets_no_base_mu(self, capsys, monkeypatch):
        # Without --mu or a config "mu", the channel verify --mu-grid gets has mu 0.0.
        seen = []
        real = oracle.verify_optimality_grid

        def spy(channel, grid, cfg):
            seen.append((channel.mu, list(grid)))
            return real(channel, grid, oracle.SearchConfig(1, 1, 0))

        monkeypatch.setattr(oracle, "verify_optimality_grid", spy)
        code, _, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0.5:1:0.5", "verify")
        assert code == 0 and seen == [(0.0, [0.5, 1.0])]


Q = ["--q", "0.2,0.1,0.3,0.4"]
# Each run with its exit code: the point commands, and usage and input errors.
NO_NUMPY_RUNS = [
    ([*Q, "--mu", "0.5", *fmt, command], 0)
    for command in ("capacity", "params") for fmt in ([], ["--format", "json"])
] + [([*Q, *fmt, "thresholds"], 0) for fmt in ([], ["--format", "json"])] + [
    (["--config", "{bad_config}", "capacity"], 2),
    (["--help"], 0),
    ([*Q, "--mu", "0.5", "--sede", "1", "capacity"], 2),
    (["--q", "0.2,0.1", "--mu", "0.5", "capacity"], 2),
]


class TestImports:
    def test_scipy_loaded_only_by_the_search(self):
        script = (
            "import sys, paulimem\n"
            "assert 'scipy' not in sys.modules\n"
            "from paulimem.cli import main\n"
            "assert main(['--q', '0.2,0.1,0.3,0.4', '--mu', '0.5', 'capacity']) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_search_runs_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from paulimem.cli import main\n"
            "argv = ['--q', '0.2,0.1,0.3,0.4', '--mu', '0.5',\n"
            "        '--grid-points', '3', '--restarts', '2', 'verify']\n"
            "sys.exit(main(argv))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def _python(self, script, *argv):
        return subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        script = (
            "import sys, paulimem\n"
            "loaded = [m for m in sys.modules if m.startswith(('numpy', 'paulimem.'))]\n"
            "assert loaded == [], loaded\n"
        )
        proc = self._python(script)
        assert proc.returncode == 0, proc.stderr

    def test_package_capacity_result_loads_no_numpy(self):
        script = (
            "import sys, paulimem\n"
            "assert paulimem.CapacityResult.__module__ == 'paulimem.closed_form'\n"
            "assert 'numpy' not in sys.modules\n"
        )
        proc = self._python(script)
        assert proc.returncode == 0, proc.stderr

    def test_every_exported_name_is_its_home_module_object(self):
        script = (
            "import importlib, paulimem\n"
            "assert set(paulimem.__all__) <= set(dir(paulimem))\n"
            "assert len(paulimem.__all__) == 56\n"
            "for name in paulimem.__all__:\n"
            "    value = getattr(paulimem, name)\n"
            "    home = importlib.import_module('paulimem.' + paulimem._HOME[name])\n"
            "    assert value is getattr(home, name), name\n"
            "    assert getattr(value, '__module__', home.__name__) == home.__name__, name\n"
            "    assert name in vars(paulimem), name  # kept for later lookups\n"
        )
        proc = self._python(script)
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_is_an_attribute_error(self):
        script = (
            "import paulimem\n"
            "try:\n"
            "    paulimem.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        proc = self._python(script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "module 'paulimem' has no attribute 'no_such_name'\n"

    def test_capacity_and_sweep_never_load_the_oracle(self, tmp_path):
        script = (
            "import sys\n"
            "from paulimem.cli import main\n"
            "assert main(['--q', '0.2,0.1,0.3,0.4', '--mu', '0.5', 'capacity']) == 0\n"
            "assert main(['--q', '0.2,0.1,0.3,0.4', '--mu-grid', '0:1:0.5', 'sweep',\n"
            "             '--out', sys.argv[1]]) == 0\n"
            "assert 'paulimem.oracle' not in sys.modules\n"
        )
        proc = self._python(script, str(tmp_path / "sweep.csv"))
        assert proc.returncode == 0, proc.stderr

    def test_point_commands_and_errors_load_no_numpy(self, tmp_path):
        bad_config = tmp_path / "bad.json"
        bad_config.write_text('{"q": [0.2, 0.1, 0.3, 0.4], "mu": "abc"}')
        script = (
            "import json, sys\n"
            "from paulimem.cli import main\n"
            "for argv, want in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        code = main(argv)\n"
            "    except SystemExit as exc:  # --help\n"
            "        code = exc.code\n"
            "    assert code == want, (argv, code)\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        )
        runs = [([a.format(bad_config=bad_config) for a in argv], code)
                for argv, code in NO_NUMPY_RUNS]
        proc = self._python(script, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        [*Q, "--mu-grid", "0:1:0.5", "sweep"],
        [*Q, "--mu", "0.5", "--grid-points", "1", "--restarts", "1", "verify"],
    ], ids=["sweep", "verify"])
    def test_sweep_and_verify_load_numpy(self, argv):
        script = (
            "import sys\n"
            "from paulimem.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = self._python(script, *argv)
        assert proc.returncode == 0, proc.stderr

    def test_json_writer_loads_no_module(self):
        # np.unique loads numpy.ma on numpy 2; numpy 1 loads it with numpy itself.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from paulimem import PauliChannel, capacity_sweep, sweep_to_csv, sweep_to_json\n"
            "curve = capacity_sweep(PauliChannel((0.2, 0.1, 0.3, 0.4), 0.0),\n"
            "                       np.linspace(0.0, 1.0, 101))\n"
            "sweep_to_csv(curve)\n"
            "before = set(sys.modules)\n"
            "sweep_to_json(curve)\n"
            "added = sorted(set(sys.modules) - before)\n"
            "assert added == [], added\n"
        )
        proc = self._python(script)
        assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_full_correlation_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "1",
            "--grid-points", "4", "--restarts", "2", "verify",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == "mu,s_oracle,s_product,s_bell,gap,flag".split(",")
        assert rows[1][5] == "false"
        assert abs(float(rows[1][4])) < 1e-9

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "1",
            "--grid-points", "4", "--restarts", "2", "--format", "json", "verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["flag"] is False

    def test_verify_needs_mu(self, capsys):
        code, _, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "verify")
        assert code == 2
        assert "--mu" in err

    def test_budget_warning(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_ITERS", 1)
        code, out, err = run_cli(
            capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.4", "--restarts", "2", "verify"
        )
        assert code == 0
        assert err == "warning: refinement budget exceeded; results are best-so-far\n"
        rows = csv_rows(out)
        assert rows[0] == "mu,s_oracle,s_product,s_bell,gap,flag".split(",")
        assert len(rows) == 2 and rows[1][0] == "0.4" and rows[1][5] == "false"
        assert all(np.isfinite(float(x)) for x in rows[1][1:5])

    # A search result gap_to_analytic below the closed form: beyond the 1e-6
    # tolerance a finding, flagged, with exit code 1; within it, none.
    @pytest.mark.parametrize("gap, flag, code", [(-2e-6, True, 1), (-0.5e-6, False, 0)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_gap_past_the_tolerance_is_a_finding(self, capsys, monkeypatch, gap, flag, code, fmt):
        s_p, s_b = 1.5883995291448203, 1.483557134679326  # the worked example at mu 0.5

        def search(channel, cfg):
            assert channel.mu == 0.5
            return oracle.OracleResult(
                min_entropy=s_b + gap, best_params=PureStateParams(0.0, 0.0, 0.0),
                best_spectrum=np.zeros(4), evaluations=1, entropy_product=s_p,
                entropy_bell=s_b, gap_to_analytic=gap,
            )

        monkeypatch.setattr(oracle, "min_entropy_bruteforce", search)
        got = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "--format", fmt, "verify")
        assert got[0] == code and got[2] == ""
        row = {"mu": 0.5, "s_oracle": s_b + gap, "s_product": s_p, "s_bell": s_b, "gap": gap,
               "flag": flag}
        if fmt == "json":
            assert json.loads(got[1]) == [row]
        else:
            assert csv_rows(got[1]) == [list(row), [format_number(x) for x in row.values()]]
            assert csv_rows(got[1])[1][5] == ("true" if flag else "false")

    def _search_config(self, capsys, monkeypatch, *flags):
        seen = []
        real = oracle.verify_optimality_grid

        def spy(channel, grid, cfg):
            seen.append(cfg)
            return real(channel, grid, oracle.SearchConfig(2, 1, 0))

        monkeypatch.setattr(oracle, "verify_optimality_grid", spy)
        code, _, _ = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "1", *flags, "verify")
        assert code == 0 and len(seen) == 1
        return seen[0]

    def test_search_defaults_come_from_search_config(self, capsys, monkeypatch):
        assert self._search_config(capsys, monkeypatch) == oracle.SearchConfig()

    def test_search_flags_set_their_own_fields(self, capsys, monkeypatch):
        cfg = self._search_config(
            capsys, monkeypatch, "--grid-points", "3", "--restarts", "5", "--seed", "9",
        )
        assert cfg == oracle.SearchConfig(grid_points_per_angle=3, restarts=5, seed=9)
        # a flag not given leaves its field at the SearchConfig default
        assert self._search_config(capsys, monkeypatch, "--restarts", "5") == \
            oracle.SearchConfig(restarts=5)


class TestDeterminism:
    def _run_bytes(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "paulimem.cli", *argv],
            capture_output=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    def test_sweep_byte_identical(self):
        argv = ["--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.25", "sweep"]
        first = self._run_bytes(argv)
        second = self._run_bytes(argv)
        assert first == second and first[0] == 0

    def test_verify_byte_identical_with_seed(self):
        argv = [
            "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5",
            "--grid-points", "4", "--restarts", "3", "--seed", "5",
            "--format", "json", "verify",
        ]
        first = self._run_bytes(argv)
        second = self._run_bytes(argv)
        assert first == second and first[0] == 0


# The benchmark's verify run (perfbench/workloads.py, VERIFY_ARGV).
VERIFY_ARGV = ["--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "--grid-points", "3", "--restarts", "2",
               "--seed", "1", "verify"]


class TestThreadDefault:
    """The program entry runs on one BLAS thread unless the caller chose a count."""

    def test_entry_module_loads_no_numpy(self):
        # numpy reads the variables once as it loads, so the entry must set them first.
        script = "import sys, paulimem.__main__\nassert 'numpy' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_entry_sets_only_unset_variables(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        seen = []

        def fake_main():
            seen.append({var: os.environ.get(var) for var in program._THREAD_VARS})
            return 0

        monkeypatch.setattr(cli, "main", fake_main)
        with pytest.raises(SystemExit) as exc:
            program.entry()
        assert exc.value.code == 0
        assert seen == [{"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
                         "MKL_NUM_THREADS": ""}]

    def test_main_leaves_the_environment_alone(self, capsys, monkeypatch):
        for var in program._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        assert run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "capacity")[0] == 0
        assert dict(os.environ) == before

    @pytest.mark.parametrize("argv", [
        "--q 0.2,0.1,0.3,0.4 --mu 0.5 capacity".split(),
        VERIFY_ARGV,
        [*VERIFY_ARGV[:-1], "--format", "json", "verify"],
    ], ids=["capacity", "verify-csv", "verify-json"])
    def test_stdout_without_the_variables_is_that_of_one_thread(self, argv):
        outputs = []
        for value in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in program._THREAD_VARS}
            if value is not None:
                env.update(dict.fromkeys(program._THREAD_VARS, value))
            proc = subprocess.run([sys.executable, "-m", "paulimem", *argv], env=env,
                                  capture_output=True, check=False)
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        if argv[-1] == "capacity":
            assert outputs[0].decode() == PINNED_STDOUT[" ".join(argv)]


# Literal stdout of these runs. The other tests parse values; this one also
# pins key order, separators, indent and the final newline. JSON holding
# entropies, and verify, are left out: their last digits come from log2 and
# LAPACK and can differ between machines.
PINNED_STDOUT = {
    "--q 0.2,0.1,0.3,0.4 --mu 0.5 params": """\
key,value
eps_0,1
eps_1,-0.4
eps_2,0
eps_3,0.2
eps_00,1
eps_01,-0.4
eps_02,0
eps_03,0.2
eps_10,-0.4
eps_11,0.58
eps_12,0.1
eps_13,-0.04
eps_20,0
eps_21,0.1
eps_22,0.5
eps_23,-0.2
eps_30,0.2
eps_31,-0.04
eps_32,-0.2
eps_33,0.52
ordering_l,1
ordering_m,3
ordering_s,2
""",
    "--q 0.2,0.1,0.3,0.4 thresholds": """\
key,value
mu_ml,0.375
mu_star,0.387563690714
degenerate,false
""",
    "--q 1,0,0,0 thresholds": """\
key,value
mu_ml,0
mu_star,0
degenerate,true
""",
    "--q 0.2,0.1,0.3,0.4 --mu 0.5 capacity": """\
mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4
0.5,entangled,0.25822143266,1.58839952914,1.48355713468,0.65,0.14,0.11,0.1
""",
    "--q 0.2,0.1,0.3,0.4 --mu-grid 0:1:0.25 sweep": """\
mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4
0,product,0.118709100769,1.76258179846,1.98026905784,0.49,0.21,0.21,0.09
0.25,product,0.140407678374,1.71918464325,1.822429498,0.5425,0.1575,0.1575,0.1425
0.5,entangled,0.25822143266,1.58839952914,1.48355713468,0.65,0.14,0.11,0.1
0.75,entangled,0.528119812646,1.35101373064,0.943760374708,0.825,0.07,0.055,0.05
1,entangled,1,0.881290899231,0,1,0,0,0
""",
    "--q 0.2,0.1,0.3,0.4 --mu 0.5 --format json params": """\
{
  "q": [
    0.2,
    0.1,
    0.3,
    0.4
  ],
  "mu": 0.5,
  "eps": [
    1.0,
    -0.39999999999999997,
    0.0,
    0.20000000000000004
  ],
  "eps_matrix": [
    [
      1.0,
      -0.39999999999999997,
      0.0,
      0.20000000000000004
    ],
    [
      -0.39999999999999997,
      0.58,
      0.10000000000000002,
      -0.04000000000000001
    ],
    [
      0.0,
      0.10000000000000002,
      0.5,
      -0.19999999999999998
    ],
    [
      0.20000000000000004,
      -0.04000000000000001,
      -0.19999999999999998,
      0.52
    ]
  ],
  "ordering": [
    1,
    3,
    2
  ]
}
""",
    "--q 0.2,0.1,0.3,0.4 --format json thresholds": """\
{
  "mu_ml": 0.375,
  "mu_star": 0.3875636907135297,
  "degenerate": false
}
""",
    "--q 0.2,0.1,0.3,0.4 --mu-grid 0:1:0.5 --format json sweep": """\
[
  {
    "mu": 0.0,
    "regime": "product",
    "c2": 0.1187091007693073,
    "entropy_product": 1.7625817984613854,
    "entropy_bell": 1.980269057838362,
    "lambdas_product": [
      0.49,
      0.21000000000000002,
      0.21000000000000002,
      0.09
    ],
    "lambdas_bell": [
      0.3,
      0.27999999999999997,
      0.22000000000000003,
      0.2
    ],
    "mu_ml": 0.375,
    "mu_star": 0.3875636907135297,
    "optimal_state": {
      "family": "product",
      "l": 1
    }
  },
  {
    "mu": 0.5,
    "regime": "entangled",
    "c2": 0.25822143266033704,
    "entropy_product": 1.5883995291448203,
    "entropy_bell": 1.483557134679326,
    "lambdas_product": [
      0.595,
      0.19500000000000003,
      0.10500000000000001,
      0.10500000000000001
    ],
    "lambdas_bell": [
      0.65,
      0.14,
      0.11000000000000001,
      0.1
    ],
    "mu_ml": 0.375,
    "mu_star": 0.3875636907135297,
    "optimal_state": {
      "family": "bell",
      "signs": [
        1,
        -1,
        1
      ]
    }
  },
  {
    "mu": 1.0,
    "regime": "entangled",
    "c2": 1.0,
    "entropy_product": 0.8812908992306927,
    "entropy_bell": 0.0,
    "lambdas_product": [
      0.7,
      0.30000000000000004,
      0.0,
      0.0
    ],
    "lambdas_bell": [
      1.0,
      0.0,
      0.0,
      0.0
    ],
    "mu_ml": 0.375,
    "mu_star": 0.3875636907135297,
    "optimal_state": {
      "family": "bell",
      "signs": [
        1,
        -1,
        1
      ]
    }
  }
]
""",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_stdout_bytes_pinned(capsys):
    for argv, expected in PINNED_STDOUT.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert (code, out) == (0, expected), argv
        if "--format json" in argv:
            # Strict JSON: no NaN or Infinity token anywhere.
            json.loads(out, parse_constant=_reject_constant)
