"""Command-line front end.

Subcommands: params (channel parameters), thresholds, capacity (single memory
value), sweep (capacity curve over a memory grid), verify (brute-force check
of the optimal families). Output is CSV or JSON on stdout or --out; exit
codes are 0 (success), 1 (verification finding), 2 (usage or input error).
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
from dataclasses import asdict
from decimal import Decimal, DecimalException, InvalidOperation

import numpy as np

from .capacity import capacity_sweep, csv_text, json_float, json_text
from .capacity import sweep_csv_blocks, sweep_json_blocks
from .channel import FAMILIES, PauliChannel, channel_from_config, channel_params, thresholds
from .errors import PauliMemError
from .oracle import SearchConfig, report_to_csv, report_to_json, verify_optimality_grid


# Largest --mu-grid, checked from START:END:STEP before the grid is built.
_MAX_GRID_POINTS = 1_000_001
# Integers below this are exact in float64.
_EXACT_INT = 2**53


def _parse_q(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated probabilities")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> np.ndarray:
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
    # Endpoints inclusive within half a step. An exponent past Decimal's range
    # overflows in the count (0:1:1e-999999999) or in the values themselves
    # (1e999999999:1e999999999:1). The bound is checked on the Decimal:
    # int() of a quotient near 1e999999 alone takes ~40 s.
    try:
        steps = (end - start) / step + Decimal("0.5")
        if steps >= _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(f"grid has more than {_MAX_GRID_POINTS} points")
        return _grid_values(start, end, step, int(steps))
    except DecimalException:
        raise argparse.ArgumentTypeError(f"grid out of range in {text!r}") from None


def _grid_values(start: Decimal, end: Decimal, step: Decimal, n: int) -> np.ndarray:
    """float(min(start + k step, end)) for k = 0..n, each correctly rounded.

    With d decimals, value k is the integer S + k T, clamped to E, over 10^d.
    While those integers and 10^d are below 2^53, float64 holds them exactly
    and its division rounds correctly, so one array division equals the
    Decimal loop; past that, the loop runs.
    """
    d = max(0, -min(x.as_tuple().exponent for x in (start, end, step)))
    last = start + n * step
    if d < 16 and max(abs(start), abs(end), step, abs(last)) * 10**d < _EXACT_INT:
        scale = 10**d
        s, e, t = (int(x * scale) for x in (start, end, step))
        k = np.arange(n + 1, dtype=np.int64)
        return np.minimum(s + t * k, e) / scale
    return np.array([float(min(start + k * step, end)) for k in range(n + 1)])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is one `error:` line and exit 2, like any other input error."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paulimem",
        description="Two-use classical capacity of Pauli channels with correlated noise.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--q", type=_parse_q, metavar="Q0,Q1,Q2,Q3",
                        help="Pauli probabilities")
    source.add_argument("--family", choices=tuple(FAMILIES),
                        help="named channel family (needs --p)")
    source.add_argument("--config", metavar="PATH",
                        help="JSON channel config file")
    parser.add_argument("--p", type=float, help="family parameter")
    parser.add_argument("--mu", type=float, help="memory parameter in [0, 1]")
    parser.add_argument("--mu-grid", type=_parse_grid, metavar="START:END:STEP",
                        help="inclusive memory grid")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--seed", type=int, default=SearchConfig.seed,
                        help="search seed (verify)")
    parser.add_argument("--grid-points", type=int, default=SearchConfig.grid_points_per_angle,
                        help="search grid points per angle (verify)")
    parser.add_argument("--restarts", type=int, default=SearchConfig.restarts,
                        help="random refinement restarts (verify)")
    parser.add_argument("command", choices=("params", "thresholds", "capacity", "sweep", "verify"))
    return parser


def _load_channel(args, default_mu: float | None = None) -> PauliChannel:
    """Build the channel with channel_from_config from the --config file, or from the
    flags as the same mapping: {"q": ...} or {"family": ..., "p": ...}. mu is --mu,
    else the mapping's "mu", else default_mu."""
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
        if default_mu is None:
            raise PauliMemError("missing 'mu': this command needs --mu or a config with 'mu'")
        mu = default_mu
    return channel_from_config(cfg, mu)


def _cmd_params(args) -> tuple[str, int]:
    channel = _load_channel(args)
    cp = channel_params(channel)
    if args.format == "json":
        payload = {
            "q": list(channel.q),
            "mu": channel.mu,
            "eps": cp.eps.tolist(),
            "eps_matrix": cp.eps2.tolist(),
            "ordering": list(cp.ordering),
        }
        return [json_text(payload)], 0
    pairs = [(f"eps_{n}", cp.eps[n]) for n in range(4)]
    pairs += [(f"eps_{n}{k}", cp.eps2[n, k]) for n in range(4) for k in range(4)]
    pairs += zip(("ordering_l", "ordering_m", "ordering_s"), cp.ordering)
    return [csv_text("key,value", pairs)], 0


def _cmd_thresholds(args) -> tuple[str, int]:
    channel = _load_channel(args, default_mu=0.0)  # thresholds ignore mu
    # Thresholds' fields in declaration order: the floats, then the flags.
    pairs = asdict(thresholds(channel)).items()
    if args.format == "json":
        payload = {k: v if isinstance(v, bool) else json_float(v) for k, v in pairs}
        return [json_text(payload)], 0
    return [csv_text("key,value", pairs)], 0


def _cmd_capacity(args) -> tuple[str, int]:
    channel = _load_channel(args)
    results = capacity_sweep(channel, [channel.mu])
    if args.format == "json":
        return [json_text(results[0].to_dict())], 0
    return sweep_csv_blocks(results), 0


def _cmd_sweep(args) -> tuple[str, int]:
    if args.mu_grid is None:
        raise PauliMemError("sweep needs --mu-grid")
    channel = _load_channel(args, default_mu=0.0)  # grid values replace mu
    results = capacity_sweep(channel, args.mu_grid)
    if args.format == "json":
        return sweep_json_blocks(results), 0
    return sweep_csv_blocks(results), 0


def _cmd_verify(args) -> tuple[str, int]:
    if args.mu_grid is not None:
        grid = args.mu_grid
    elif args.mu is not None:
        grid = [args.mu]
    else:
        raise PauliMemError("verify needs --mu or --mu-grid")
    channel = _load_channel(args, default_mu=grid[0])
    cfg = SearchConfig(args.grid_points, args.restarts, args.seed)
    report = verify_optimality_grid(channel, grid, cfg)
    if report.budget_exceeded:
        print("warning: refinement budget exceeded; results are best-so-far",
              file=sys.stderr)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    return [text], 1 if report.any_flag else 0


# Each command returns its output as an iterable of text blocks, and its exit code.
_DISPATCH = {
    "params": _cmd_params,
    "thresholds": _cmd_thresholds,
    "capacity": _cmd_capacity,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
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
    args = build_parser().parse_args(argv)
    try:
        blocks, code = _DISPATCH[args.command](args)
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
