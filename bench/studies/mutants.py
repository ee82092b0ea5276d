"""Which tier-1 test kills each mutant of a fixed table.

Each mutant is one textual change to a file of `src/paulimem`. For each of
the first `--size` mutants, the checkout is copied to a temporary directory,
the change is applied there, and the tier-1 suite runs in a subprocess with
`-x` against that copy. Prints one JSON line mapping each mutant to the
first test that failed on it, or to null if the whole suite passed (a
survivor). Every mutant's text is checked to occur exactly once before any
run, at every size, so a table that no longer matches the code fails at
`--size 0`. The table is fixed, so there is nothing to seed; the numbers are
measurements, and nothing here is a gate.

    PYTHONPATH=src python bench/studies/mutants.py [--size N]

A killed mutant costs the suite up to its first failure, a survivor the
whole suite (35-50 s on a 2-core machine). The default, the whole table of
16 mutants, took 209 s there, with every mutant killed.

The oracle's speed knobs, `_REFINEMENTS` and `_MAX_STEP`, stay out of the
table. Changing either may move which rows get refined, `evaluations` and the
last digits of `min_entropy`, which no test pins; the suite holds only what
they may not move, the hard-set minimum within 1e-9 on seeds 0-3
(`test_default_search_reaches_the_hard_set_minimum`). Their mutants (3 -> 1,
0.5 -> 5.0) survive by design, each at the cost of a whole suite run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# name -> (file under src/paulimem, text, replacement); the text occurs once in the file.
MUTANTS = {
    "ordering-tie-to-larger-index": (
        "channel.py", "    if d1 <= d2:\n", "    if d1 < d2:\n"),
    "diagonal-mu-scaled": (
        "channel.py", "x * e1 * e1 + mu,", "x * e1 * e1 + mu * x,"),
    "mu-ml-over-ds": (
        "channel.py", "x = 2.0 * min(p, n) / dm", "x = 2.0 * min(p, n) / ds"),
    "channel-text-accepted": (
        "channel.py", "_NOT_REAL = (str, bytes, bytearray, bool)", "_NOT_REAL = (bool,)"),
    "scalar-bool-accepted": (
        "channel.py",
        'if not isinstance(x, _NOT_REAL) and getattr(getattr(x, "dtype", None), "kind", "") != "b":',
        "if not isinstance(x, (str, bytes, bytearray)):"),
    "fast-path-skips-q0": (
        "channel.py", "len(q) == 4 and type(q[0]) is float", "len(q) == 4 and type(q[1]) is float"),
    "mp-refuses-p-0": (
        "channel.py", "if not 0.0 <= p <= 0.5:", "if not 0.0 < p <= 0.5:"),
    "spectrum-bool-accepted": (
        "closed_form.py", "tuple([_real(x, message) for x in values])",
        "tuple([float(x) for x in values])"),
    "result-unchecked-against-spectra": (
        "closed_form.py", 'if given != value or name == "regime" and given is not value:',
        "if False:"),
    "verify-never-flags": (
        "oracle.py", "flag=result.gap_to_analytic < -_TOL_ENTROPY,", "flag=False,"),
    "verify-flag-tolerance-1e-3": (
        "oracle.py", "_TOL_ENTROPY = 1e-6", "_TOL_ENTROPY = 1e-3"),
    "tie-tolerance-1e-9": (
        "closed_form.py", "_TIE_TOL = 1e-12", "_TIE_TOL = 1e-9"),
    "spectrum-tolerance-1e-6": (
        "closed_form.py", "_SPECTRUM_TOL = 1e-9", "_SPECTRUM_TOL = 1e-6"),
    "mu-ml-unclamped": (
        "channel.py", '"mu_ml": max(mu_ml, 0.0)', '"mu_ml": mu_ml'),
    "mu-star-unclamped": (
        "channel.py", '"mu_star": max(mu_ml + delta, 0.0)', '"mu_star": mu_ml + delta'),
    "gradient-tolerance-1e-5": (
        "oracle.py", "_GRAD_TOL = 1e-7", "_GRAD_TOL = 1e-5"),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench_work", ".perfbench_out")


def _check_table() -> None:
    for name, (path, text, _) in MUTANTS.items():
        count = (ROOT / "src" / "paulimem" / path).read_text().count(text)
        if count != 1:
            raise SystemExit(f"mutant {name!r}: its text occurs {count} times in {path}")


def _first_failure(output: str) -> str | None:
    """The test id of the first FAILED or ERROR line of pytest's short summary."""
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                return line[len(prefix):].split(" - ", 1)[0]
    return None


def _run(name: str) -> str | None:
    path, text, replacement = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = copy / "src" / "paulimem" / path
        target.write_text(target.read_text().replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        # The study's own test checks this table against the code, which every mutant
        # changes; it would report each survivor as killed.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--deselect", "tests/test_studies.py::test_mutants_prints_one_json_line"],
            cwd=copy, env=env, capture_output=True, text=True, check=False,
        )
    if proc.returncode == 0:
        return None
    return _first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=len(MUTANTS),
                        help="run the first SIZE mutants of the table")
    args = parser.parse_args(argv)
    if args.size < 0:
        parser.error("--size must not be negative")
    _check_table()
    names = list(MUTANTS)[: args.size]
    killed_by = {name: _run(name) for name in names}
    print(json.dumps({"study": "mutants", "size": len(names), "killed_by": killed_by,
                      "survivors": [n for n, test in killed_by.items() if test is None]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
