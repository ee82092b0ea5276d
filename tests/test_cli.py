import argparse
import json
import subprocess
import sys

import pytest

from paulimem import cli, oracle
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
            with pytest.raises(SystemExit) as exc:
                main(["--q", "0.2,0.1,0.3,0.4", "--mu-grid", grid, "sweep"])
            assert exc.value.code == 2

    def test_grid_steps_land_on_decimal_values(self):
        assert _parse_grid("0:1:0.1") == [k / 10 for k in range(11)]
        assert _parse_grid("0:1:0.01") == [k / 100 for k in range(101)]
        assert _parse_grid("0:1:0.125") == [k / 8 for k in range(9)]
        assert _parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
        assert _parse_grid("0:1:0.6") == [0.0, 0.6, 1.0]  # end kept within half a step

    def test_grid_size_bound_checked_before_building(self, monkeypatch):
        # Only the count is computed before the check, so none of these
        # builds a list; 0:1:1e-12 would be 1e12 floats.
        for text in ("0:1:9.99e-7", "0:1:1e-12", "0:1:1e-300"):
            with pytest.raises(argparse.ArgumentTypeError, match="more than 1000001"):
                _parse_grid(text)
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 10)
        assert len(_parse_grid("0:0.9:0.1")) == 10
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid("0:1:0.1")

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

    def test_config_conflicts_with_q(self, capsys, tmp_path):
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps({"q": [1, 0, 0, 0], "mu": 0.0}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--q", "1,0,0,0", "params"])
        assert exc.value.code == 2


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
            (("--mu", "0.5", "--seed", "-1"), "seed must be nonnegative"),
            (("--mu-grid", "0:1.5:0.5"), "mu outside [0, 1]: 1.5"),
        ],
    )
    def test_bad_verify_input_runs_no_search(self, capsys, monkeypatch, argv, message):
        searches = []
        monkeypatch.setattr(oracle, "min_entropy_bruteforce", lambda *a: searches.append(a))
        code, out, err = run_cli(capsys, "--q", "0.2,0.1,0.3,0.4", *argv, "verify")
        self._assert_one_error_line(subprocess.CompletedProcess(argv, code, out, err))
        assert message in err
        assert searches == []


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

    def _search_config(self, capsys, monkeypatch, *flags):
        seen = []
        real = cli.verify_optimality_grid

        def spy(channel, grid, cfg):
            seen.append(cfg)
            return real(channel, grid, oracle.SearchConfig(2, 1, 0))

        monkeypatch.setattr(cli, "verify_optimality_grid", spy)
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
mu_ml_raw,0.375
mu_star_raw,0.387563690714
degenerate,false
no_threshold,false
""",
    "--q 1,0,0,0 thresholds": """\
key,value
mu_ml,0
mu_star,0
mu_ml_raw,0
mu_star_raw,0
degenerate,true
no_threshold,false
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
  "mu_ml": 0.37499999999999994,
  "mu_star": 0.38756369071352975,
  "mu_ml_raw": 0.37499999999999994,
  "mu_star_raw": 0.38756369071352975,
  "degenerate": false,
  "no_threshold": false
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
    "mu_ml": 0.37499999999999994,
    "mu_star": 0.38756369071352975,
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
    "mu_ml": 0.37499999999999994,
    "mu_star": 0.38756369071352975,
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
    "mu_ml": 0.37499999999999994,
    "mu_star": 0.38756369071352975,
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


def test_stdout_bytes_pinned(capsys):
    for argv, expected in PINNED_STDOUT.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert (code, out) == (0, expected), argv
