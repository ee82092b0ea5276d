"""Command-line front end.

Subcommands: params (channel parameters), thresholds, capacity (single memory
value), sweep (capacity curve over a memory grid), verify (brute-force check
of the optimal families). Output is CSV or JSON on stdout or --out; exit
codes are 0 (success), 1 (verification finding), 2 (usage or input error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from decimal import Decimal, InvalidOperation

from .capacity import capacity_sweep, csv_text, json_float, json_text, sweep_to_csv, sweep_to_json
from .channel import FAMILIES, PauliChannel, channel_from_config, channel_params, thresholds
from .errors import PauliMemError
from .oracle import SearchConfig, report_to_csv, report_to_json, verify_optimality_grid


# Largest --mu-grid, checked from START:END:STEP before the list is built.
_MAX_GRID_POINTS = 1_000_001


def _parse_q(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated probabilities")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> list[float]:
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
    # Endpoints inclusive within half a step.
    count = int((end - start) / step + Decimal("0.5")) + 1
    if count > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {count} points, more than {_MAX_GRID_POINTS}"
        )
    return [float(min(start + k * step, end)) for k in range(count)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    """Build the channel from flags or config; mu from --mu, else the file, else default_mu."""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise PauliMemError(f"cannot read config: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise PauliMemError(f"malformed config: {exc}") from None
        if args.mu is None and isinstance(cfg, dict):
            return channel_from_config(cfg, mu=cfg.get("mu", default_mu))
        return channel_from_config(cfg, mu=args.mu)
    mu = args.mu if args.mu is not None else default_mu
    if mu is None:
        raise PauliMemError("this command needs --mu")
    if args.q is not None:
        return PauliChannel(args.q, mu)
    if args.family is not None:
        if args.p is None:
            raise PauliMemError("--family requires --p")
        return FAMILIES[args.family](args.p, mu)
    raise PauliMemError("no channel given: use --q, --family or --config")


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
        return json_text(payload), 0
    pairs = [(f"eps_{n}", cp.eps[n]) for n in range(4)]
    pairs += [(f"eps_{n}{k}", cp.eps2[n, k]) for n in range(4) for k in range(4)]
    pairs += zip(("ordering_l", "ordering_m", "ordering_s"), cp.ordering)
    return csv_text("key,value", pairs), 0


def _cmd_thresholds(args) -> tuple[str, int]:
    channel = _load_channel(args, default_mu=0.0)  # thresholds ignore mu
    # Thresholds' fields in declaration order: the floats, then the flags.
    pairs = asdict(thresholds(channel)).items()
    if args.format == "json":
        payload = {k: v if isinstance(v, bool) else json_float(v) for k, v in pairs}
        return json_text(payload), 0
    return csv_text("key,value", pairs), 0


def _cmd_capacity(args) -> tuple[str, int]:
    channel = _load_channel(args)
    results = capacity_sweep(channel, [channel.mu])
    if args.format == "json":
        return json_text(results[0].to_dict()), 0
    return sweep_to_csv(results), 0


def _cmd_sweep(args) -> tuple[str, int]:
    if args.mu_grid is None:
        raise PauliMemError("sweep needs --mu-grid")
    channel = _load_channel(args, default_mu=0.0)  # grid values replace mu
    results = capacity_sweep(channel, args.mu_grid)
    if args.format == "json":
        return sweep_to_json(results), 0
    return sweep_to_csv(results), 0


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
    return text, 1 if report.any_flag else 0


_DISPATCH = {
    "params": _cmd_params,
    "thresholds": _cmd_thresholds,
    "capacity": _cmd_capacity,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise PauliMemError(f"cannot write output: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = _DISPATCH[args.command](args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args.out, text)
    except PauliMemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
