"""Command-line front end.

Subcommands: params (channel parameters), thresholds, capacity (single memory
value), sweep (capacity curve over a memory grid), verify (brute-force check
of the optimal families). Output is CSV or JSON on stdout or --out; exit
codes are 0 (success), 1 (verification finding), 2 (usage or input error).

Only verify imports the oracle. capacity, params, thresholds and a sweep of at most
_LIST_GRID_POINTS points run on the plain-float closed form of channel.py and
closed_form.py and load no numpy; a larger sweep imports it, and verify always
does. A usage or input error exits before numpy would load.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Sequence
from dataclasses import asdict
from decimal import Decimal, DecimalException, InvalidOperation

from .channel import FAMILIES, PauliChannel, _params, channel_from_config, thresholds
from .closed_form import SWEEP_CSV_HEADER, capacity_two_use, csv_text, json_text
from .errors import PauliMemError


# Largest --mu-grid, checked from START:END:STEP before the grid is built.
_MAX_GRID_POINTS = 1_000_001
# The grid is exact arithmetic on integers S, E, T and 10^d below 10 to this
# power; every float64 in [0, 1] is written out in at most 1074 decimals.
_MAX_GRID_DIGITS = 1100
# Integers below this are exact in float64.
_EXACT_INT = 2**53
# Largest grid that sweep runs point by point on the plain-float closed form, loading
# no numpy. Warm, that costs ~11 us a point more than the array route in CSV and
# ~28 us more in JSON, and numpy with paulimem.capacity takes ~60 ms to import cold:
# break-even near 5,000 points (CSV) and 2,100 (JSON), kept below both.
_LIST_GRID_POINTS = 2_000


def _parse_q(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated probabilities")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> Sequence[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:END:STEP")
    # Decimal steps land exactly on decimal grid values (0.3, not
    # 0.30000000000000004), which float accumulation of the step would not.
    try:
        start, end, step = (Decimal(p) for p in parts)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"invalid number in {text!r}") from None
    if not (start.is_finite() and end.is_finite() and step.is_finite()):
        raise argparse.ArgumentTypeError("grid values must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if start > end:
        raise argparse.ArgumentTypeError("grid start exceeds end")
    # Endpoints inclusive within half a step. A first count, rounded to Decimal's
    # 28 digits, rejects a grid far past the bound or past Decimal's range
    # (0:1:1e-999999999) before any integer is built: int() of a quotient near
    # 1e999999 alone takes ~40 s. Rounding moves it by under 1e-26 of itself,
    # so what it rejects has at least _MAX_GRID_POINTS steps.
    too_many = f"grid has more than {_MAX_GRID_POINTS} points"
    try:
        if (end - start) / step >= _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(too_many)
        # Exact from here: S, E, T are START, END and STEP times 10^d, d the most
        # decimals among them (zeros have none).
        bounds = (start, end, step)
        d = max(0, -min(x.as_tuple().exponent for x in bounds if x))
        if max(0, *(x.adjusted() for x in bounds if x)) + d >= _MAX_GRID_DIGITS:
            raise OverflowError  # past the digit bound: out of range, as past float64
        scale = 10**d
        s, e, t = (num * scale // den for num, den in (x.as_integer_ratio() for x in bounds))
        n = (2 * (e - s) + t) // (2 * t)  # floor((END - START) / STEP + 1/2)
        if n >= _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(too_many)
        return _grid_values(s, e, t, scale, n)
    except (DecimalException, OverflowError):
        raise argparse.ArgumentTypeError(f"grid out of range in {text!r}") from None


def _grid_values(s: int, e: int, t: int, scale: int, n: int) -> Sequence[float]:
    """min(s + k t, e) / scale for k = 0..n, each the float nearest the exact quotient.

    Python's division of integers rounds correctly, and gives a list. A grid of
    more than _LIST_GRID_POINTS points whose integers and scale are below 2^53,
    which float64 holds exactly and divides correctly, is one numpy array
    division instead; only there does building a grid load numpy.
    """
    if n >= _LIST_GRID_POINTS and max(abs(s), abs(e), t, abs(s + n * t), scale) < _EXACT_INT:
        import numpy as np

        k = np.arange(n + 1, dtype=np.int64)
        return np.minimum(s + t * k, e) / scale
    return [min(s + k * t, e) / scale for k in range(n + 1)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is one `error:` line and exit 2 from main, like any other input error."""
        raise PauliMemError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paulimem",
        description="Two-use classical capacity of Pauli channels with correlated noise.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--q", type=_parse_q, metavar="Q0,Q1,Q2,Q3", help="Pauli probabilities")
    source.add_argument("--family", choices=tuple(FAMILIES),
                        help="named channel family (needs --p)")
    source.add_argument("--config", metavar="PATH", help="JSON channel config file")
    parser.add_argument("--p", type=float, help="family parameter")
    memory = parser.add_mutually_exclusive_group()
    memory.add_argument("--mu", type=float, help="memory parameter in [0, 1]")
    memory.add_argument("--mu-grid", type=_parse_grid, metavar="START:END:STEP",
                        help="inclusive memory grid")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--seed", type=int, help="search seed (verify)")
    parser.add_argument("--grid-points", type=int, help="search grid points per angle (verify)")
    parser.add_argument("--restarts", type=int, help="random refinement restarts (verify)")
    parser.add_argument("command", choices=tuple(_COMMANDS))
    return parser


def _load_channel(args, reads) -> tuple[PauliChannel, Sequence[float]]:
    """The channel and memory grid for a command that reads the flags `reads`.

    The channel is channel_from_config of the --config file, or of the flags as the
    same mapping: {"q": ...} or {"family": ..., "p": ...}. The grid is --mu-grid, else
    [mu]: --mu, else the mapping's "mu" (0.0 for a command that reads no single mu)."""
    if args.mu_grid is None and "mu" not in reads and "mu_grid" in reads:
        raise PauliMemError(f"{args.command} needs --mu-grid")
    if args.p is not None and args.family is None:
        raise PauliMemError("--p is read only with --family")
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise PauliMemError(f"cannot read config: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise PauliMemError(f"malformed config: {exc}") from None
    else:
        flags = {"q": args.q, "family": args.family, "p": args.p}
        cfg = {key: value for key, value in flags.items() if value is not None}
        if not cfg:
            raise PauliMemError("no channel given: use --q, --family or --config")
    mu = args.mu
    if mu is None and isinstance(cfg, dict) and "mu" not in cfg:
        if "mu" in reads and args.mu_grid is None:
            raise PauliMemError("missing 'mu': this command needs --mu or a config with 'mu'")
        mu = 0.0
    channel = channel_from_config(cfg, mu)
    return channel, [channel.mu] if args.mu_grid is None else args.mu_grid


def _cmd_params(args, channel, grid) -> tuple[Iterable[str], int]:
    eps, eps2, order, _ = _params(channel)
    if args.format == "json":
        payload = {
            "q": list(channel.q),
            "mu": channel.mu,
            "eps": eps,
            "eps_matrix": eps2,
            "ordering": list(order),
        }
        return [json_text(payload)], 0
    pairs = [(f"eps_{n}", eps[n]) for n in range(4)]
    pairs += [(f"eps_{n}{k}", eps2[n][k]) for n in range(4) for k in range(4)]
    pairs += zip(("ordering_l", "ordering_m", "ordering_s"), order)
    return [csv_text("key,value", pairs)], 0


def _cmd_thresholds(args, channel, grid) -> tuple[Iterable[str], int]:
    # Thresholds' fields in declaration order: the two floats, then the flag.
    pairs = asdict(thresholds(channel)).items()
    if args.format == "json":
        return [json_text(dict(pairs))], 0
    return [csv_text("key,value", pairs)], 0


def _sweep_row(r) -> tuple:
    """One sweep entry's CSV row: l1..l4 hold the winning spectrum."""
    return (r.mu, r.regime.value, r.c2, r.entropy_product, r.entropy_bell, *r.winning_spectrum())


def _cmd_capacity(args, channel, grid) -> tuple[Iterable[str], int]:
    # The plain-float closed form, in the layout of one sweep entry.
    r = capacity_two_use(channel)
    if args.format == "json":
        return [json_text(r.to_dict())], 0
    return [csv_text(SWEEP_CSV_HEADER, [_sweep_row(r)])], 0


def _cmd_sweep(args, channel, grid) -> tuple[Iterable[str], int]:
    if len(grid) <= _LIST_GRID_POINTS:  # the same bytes as the array route's writers
        results = [capacity_two_use(channel.with_mu(mu)) for mu in grid]
        if args.format == "json":
            return [json_text([r.to_dict() for r in results])], 0
        return [csv_text(SWEEP_CSV_HEADER, map(_sweep_row, results))], 0
    from .capacity import capacity_sweep, sweep_csv_blocks, sweep_json_blocks

    results = capacity_sweep(channel, grid)
    if args.format == "json":
        return sweep_json_blocks(results), 0
    return sweep_csv_blocks(results), 0


def _cmd_verify(args, channel, grid) -> tuple[Iterable[str], int]:
    from .oracle import SearchConfig, report_to_csv, report_to_json, verify_optimality_grid

    given = dict(grid_points_per_angle=args.grid_points, restarts=args.restarts, seed=args.seed)
    cfg = SearchConfig(**{name: value for name, value in given.items() if value is not None})
    report = verify_optimality_grid(channel, grid, cfg)
    if report.budget_exceeded:
        print("warning: refinement budget exceeded; results are best-so-far",
              file=sys.stderr)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    return [text], 1 if report.any_flag else 0


# Each command: its function, (args, channel, grid) -> (text blocks, exit code), and
# the memory and search flags it reads (verify reads them all).
_COMMANDS = {
    "params": (_cmd_params, ("mu",)),
    "thresholds": (_cmd_thresholds, ()),
    "capacity": (_cmd_capacity, ("mu",)),
    "sweep": (_cmd_sweep, ("mu_grid",)),
    "verify": (_cmd_verify, ("mu", "mu_grid", "seed", "grid_points", "restarts")),
}


def _write_blocks(fh, blocks) -> None:
    for block in blocks:
        fh.write(block)


def _new_file_mode() -> int:
    """The mode open(path, "w") gives a new file: 0o666 less the umask.

    The umask can only be read by setting it, so it is 0 for two calls; the
    CLI runs no other thread that could create a file meanwhile.
    """
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _write_out(path: str, blocks) -> None:
    """Write the blocks to path as they come; path changes only once all are written.

    The blocks go to a temporary file beside path's target (symlinks
    resolved), which is renamed onto it at the end and removed on any
    failure. The file gets the mode open(path, "w") would give it. A path
    that exists but is not a regular file (/dev/null, a pipe) cannot be
    renamed onto, so it is written in place.
    """
    if not os.path.basename(path):  # "" or "dir/": open() would refuse it too
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_blocks(fh, blocks)
        return
    target = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".paulimem-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            _write_blocks(fh, blocks)
        os.chmod(tmp, _new_file_mode() if mode is None else stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run, reads = _COMMANDS[args.command]
        for dest in _COMMANDS["verify"][1]:  # refused before anything is built or run
            if getattr(args, dest) is not None and dest not in reads:
                raise PauliMemError(f"{args.command} does not read --{dest.replace('_', '-')}")
        blocks, code = run(args, *_load_channel(args, reads))
        try:
            if args.out is None:
                _write_blocks(sys.stdout, blocks)
            else:
                _write_out(args.out, blocks)
        except OSError as exc:
            where = "stdout" if args.out is None else args.out
            raise PauliMemError(f"cannot write output: {where}: {exc.strerror or exc}") from None
    except PauliMemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
