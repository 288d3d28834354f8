"""Hand-made mutants of the engine, each run against tier-1 on a copy.

Run by hand from the repository root:

    python tests/mutants.py [--workdir DIR] [NAME ...]

For each mutant (all of them, or those named), the repository, without .git
and caches, is copied into a fresh directory under DIR (the system's
temporary directory by default), one snippet of one file under src/hkforge is
replaced, and tier-1 runs there, stopping at the first failure.  A mutant is
"killed" when a test fails and "survived" when every test passes.  The
unmutated copy runs first and must pass.  The exit status is 0 when every
mutant is killed, 1 when one survived or a snippet does not occur exactly
once in its file (the script then stops), and 2 when the unmutated copy
fails.  pytest does not collect this file: its name does not start with
`test_`.  Re-run it after a change that rewrites the packed core.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name: (file under src/hkforge, snippet, replacement)
MUTANTS = {
    "spoly-overflow-check": (
        "groebner.py",
        "        if (plain - lead + top) & guard:\n",
        "        if False:\n",
    ),
    "pair-degree-check": (
        "groebner.py",
        "            if deg > mask:\n",
        "            if False:\n",
    ),
    "reduce-overflow-check": (
        "polyring.py",
        "        if (t + top) & guard:\n",
        "        if False:\n",
    ),
    "criterion-b-keeps-pairs": (
        "groebner.py",
        "            pairs[at], removed = None, True\n",
        "            pass\n",
    ),
    "merge-drops-a-long-tail": (
        "polyring.py",
        "    out += h[i:]\n",
        "    out += h[i : i + 8]\n",
    ),
    "standard-count-no-early-exit": (
        "lengths.py",
        "        if count == 0:\n",
        "        if False:\n",
    ),
    "saturation-steps-off-by-one": (
        "ideals.py",
        "        if not level:\n            return step\n",
        "        if not level:\n            return step + 1\n",
    ),
    "line-test-always-true": (
        "verify.py",
        "    basis = e.groebner_basis()\n    line = basis.reduce(f)\n",
        "    return True\n",
    ),
    "claim-6-always-true": (
        "verify.py",
        "        sat_is_h = _within_line(sat, data.e, data.f)\n",
        "        sat_is_h = True\n",
    ),
    "claim-5-skips-its-fallback": (
        "verify.py",
        "    h_saturated = sat_is_h or _saturate_variable(data.h, s_index) is data.h\n",
        "    h_saturated = True\n",
    ),
    "product-never-widens": (
        "polyring.py",
        "        while (a._bound() + b._bound()) & a.packing.guard:\n",
        "        while False:\n",
    ),
    "mul-term-overflow-check": (
        "polyring.py",
        "            if not ((t ^ pk.flip) + self._bound()) & pk.guard:\n",
        "            if True:\n",
    ),
    "mul-term-degree-check": (
        "polyring.py",
        "        if c and self.packed and sum(mon) <= pk.mask:\n",
        "        if c and self.packed:\n",
    ),
    "move-degree-bound": (
        "polyring.py",
        "            if bound > self.mask:\n",
        "            if False:\n",
    ),
    "frobenius-keeps-its-width": (
        "polyring.py",
        "        width = max(src.width, packing_width(q * self.total_degree()))\n",
        "        width = src.width\n",
    ),
    "table-never-widens": (
        "polyring.py",
        "        if self._packing is None or self._packing.width < width:\n",
        "        if self._packing is None:\n",
    ),
    "product-overflow-check": (
        "polyring.py",
        "        if ((t ^ flip) + top) & guard:\n",
        "        if False:\n",
    ),
    "table-run-never-restarts": (
        "polyring.py",
        "            except _Overflow:\n                width = 2 * pk.width\n",
        "            except _Overflow:\n                raise\n",
    ),
    "product-skips-its-scale": (
        "polyring.py",
        "        elif c == 1:\n",
        "        elif True:\n",
    ),
    "closure-keeps-every-form": (
        "lengths.py",
        "            while row and (pivot := rows.get(row[0][0])) is not None:\n",
        "            while False:\n",
    ),
    "move-sums-no-degree-field": (
        "polyring.py",
        "        if summed:\n",
        "        if False:\n",
    ),
    "move-fills-no-slot": (
        "polyring.py",
        "        if fill_sum is not None:\n",
        "        if False:\n",
    ),
}


def _copy(dest: pathlib.Path) -> None:
    shutil.copytree(
        ROOT,
        dest,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis", "out"
        ),
    )


def _mutate(dest: pathlib.Path, name: str) -> None:
    target, snippet, replacement = MUTANTS[name]
    path = dest / "src" / "hkforge" / target
    text = path.read_text()
    if text.count(snippet) != 1:
        raise SystemExit(f"{name}: the snippet occurs {text.count(snippet)} times in {target}")
    path.write_text(text.replace(snippet, replacement))


def _tier1_passes(dest: pathlib.Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=dest, env=env, capture_output=True, text=True,
    )
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run (default all): {', '.join(MUTANTS)}")
    parser.add_argument("--workdir", default=None, help="where the copies go")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    survived = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _copy(base)
        if not _tier1_passes(base):
            print("baseline: tier-1 fails on the unmutated copy", flush=True)
            return 2
        shutil.rmtree(base)
        for name in args.names or MUTANTS:
            dest = pathlib.Path(tmp) / name
            _copy(dest)
            _mutate(dest, name)
            killed = not _tier1_passes(dest)
            survived += not killed
            print(f"{name}: {'killed' if killed else 'survived'}", flush=True)
            shutil.rmtree(dest)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
