"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sgemm-oversub --seed 1 --seconds 40 --trace 0

Workloads: ``sgemm-oversub``, ``solver-sweep``, ``fleet-openloop`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment.  The program under test is imported from
``src/`` of the checkout the command runs in.
"""

from __future__ import annotations

import time

#: benchmark process start, as close to interpreter start as we can read
#: it; ``setup_s`` runs from here to the first timed operation.
PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: per-run scratch (stores, child span files) and trace output, inside
#: the checkout.
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("sgemm-oversub", "solver-sweep", "fleet-openloop")
#: set-ups per run; ``setup_s`` is their median (the run's own plus
#: fresh-interpreter repeats).
SETUP_REPEATS = 3


class SetupError(RuntimeError):
    """The checkout does not hold the program's sources."""


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def environment() -> dict:
    """Fingerprint recorded with every result."""
    import numpy

    from repro.experiments.runner import code_version

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "code_version": code_version(),
        "git_commit": commit,
    }


def setup_probe(workload: str, seed: int, seconds: float) -> float:
    """Repeat this workload's set-up in a fresh interpreter; returns its
    ``setup_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import inputs
    import suite

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "fleet-openloop" and args.seconds > inputs.fleet_max_seconds():
        print(f"perfbench: --seconds {args.seconds:g} would draw more fresh keys than "
              f"the fleet spec pool holds; use at most {inputs.fleet_max_seconds():.0f}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"{args.workload}-{seed}-{os.getpid()}"
    bench = suite.make(args.workload, seed, run_dir, args.seconds, trace=bool(args.trace))
    try:
        bench.setup()
        setup_s = time.perf_counter() - PROCESS_T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            outcome = bench.run_traced(args.seconds)
        else:
            outcome = bench.run(args.seconds)
    finally:
        bench.close()
    if not args.trace:
        setups = [setup_s] + [
            setup_probe(args.workload, seed, args.seconds)
            for _ in range(SETUP_REPEATS - 1)
        ]
        outcome.metric("setup_s", sorted(setups)[len(setups) // 2], "s")
    env = environment()
    report = outcome.report()
    if args.trace:
        stem = OUT_DIR / f"trace-{args.workload}-{seed}"
        bench.write_spans(stem.with_suffix(".spans.jsonl"))
        stem.with_suffix(".json").write_text(json.dumps(
            {"workload": args.workload, "seed": seed, "env": env,
             "result": report, **outcome.trace_doc}, indent=1) + "\n")
    for note in outcome.notes:
        print(f"note: {note}")
    print(json.dumps({"env": env, "workload": args.workload, "seed": seed}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
