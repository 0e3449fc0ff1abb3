"""Time the fixed cost of a CLI process: interpreter start, imports and exit.

bench/run.py --trace 1 runs the CLI in-process, so its per-layer metrics
see neither start-up nor exit. This tool runs four children, alternating
over the children and the source trees given, for a fixed number of
rounds after one untimed round that fills the bytecode caches; the order
of the trees flips each round:

    pass    python -c pass
    numpy   import numpy
    cli     import topo_thermo.cli
    sweep   topo_thermo.cli.main() on bench/run.py's ring_n400 config, seed 0

Each child registers an atexit hook that prints time.perf_counter() after
its last statement; the parent reads the same monotonic clock when
os.wait4 returns. A child's time splits into "run" (start to the hook) and
"exit" (the hook to the end of the process). For each tree the tool
prints the median run, exit and total of each child with the quartiles of
the total, then the floor by layer: interpreter start (pass run), import
numpy (numpy run - pass run), package import (cli run - numpy run), sweep
and render (sweep run - cli run), and exit (sweep exit).

usage: python tools/floor.py [--rounds N] SRC [SRC ...]   (e.g. a parent's src, then src)
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import THREAD_VARS, _workloads

HOOK = "import atexit, os, time; atexit.register(lambda: print(repr(time.perf_counter())))\n"
CHILDREN = {
    "pass": "pass",
    "numpy": "import numpy",
    "cli": "import topo_thermo.cli",
    "sweep": "import sys, topo_thermo.cli\n"
             "sys.argv = ['topo-thermo', 'sweep', '--config', {config!r}, '--out', os.devnull]\n"
             "topo_thermo.cli.main()",
}


def time_child(src: Path, code: str) -> tuple:
    """(run, exit) seconds of one `python -c HOOK + code` against the tree `src`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHOME"}
    env["PYTHONPATH"] = str(src)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", HOOK + code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, status, _ = os.wait4(proc.pid, 0)
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"child failed with exit {proc.returncode}: {err.decode()[-400:]}")
    last_statement = float(out.split()[-1])
    return last_statement - started, ended - last_statement


def report(src: Path, times: dict, rounds: int) -> None:
    ms = {name: [(1e3 * run, 1e3 * end) for run, end in pairs] for name, pairs in times.items()}
    run = {name: statistics.median(r for r, _ in pairs) for name, pairs in ms.items()}
    end = {name: statistics.median(e for _, e in pairs) for name, pairs in ms.items()}
    print(f"{src} ({rounds} rounds; medians in ms, total's quartiles in brackets)")
    print(f"  {'child':<6} {'run':>7} {'exit':>7} {'total':>7}")
    for name, pairs in ms.items():
        low, _, high = statistics.quantiles([r + e for r, e in pairs], n=4)
        total = statistics.median(r + e for r, e in pairs)
        print(f"  {name:<6} {run[name]:7.1f} {end[name]:7.1f} {total:7.1f}  [{low:.1f}-{high:.1f}]")
    layers = {
        "interpreter start": run["pass"],
        "import numpy": run["numpy"] - run["pass"],
        "package import": run["cli"] - run["numpy"],
        "sweep and render": run["sweep"] - run["cli"],
        "exit": end["sweep"],
    }
    print("  floor by layer: " + ", ".join(f"{k} {v:.1f}" for k, v in layers.items()) + " ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds (default 20)")
    parser.add_argument("src", nargs="+", type=Path, help="a tree that holds topo_thermo/")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")
    trees = [path.resolve() for path in args.src]
    for tree in trees:
        if not (tree / "topo_thermo" / "cli.py").is_file():
            parser.error(f"no topo_thermo sources under {tree}")
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "ring_n400.json"
        config.write_text(json.dumps(_workloads()["ring_n400"].config(0)))
        codes = {name: code.format(config=str(config)) for name, code in CHILDREN.items()}
        times = {tree: {name: [] for name in codes} for tree in trees}
        for round_ in range(args.rounds + 1):
            for name, code in codes.items():
                for tree in trees if round_ % 2 else trees[::-1]:
                    measured = time_child(tree, code)
                    if round_:  # round 0 fills the bytecode caches
                        times[tree][name].append(measured)
    for tree in trees:
        report(tree, times[tree], args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
