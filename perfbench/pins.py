"""Correctness pins: golden digests of simulated results.

Simulated statistics (counters, the category timer, ``total_time_ns``)
repeat exactly for a given input, so the benchmark pins them instead of
measuring them.  Pins live in ``perfbench/pins/<workload>.json`` and only
the explicit regeneration command below rewrites them::

    python3 perfbench/pins.py --regenerate sgemm-oversub solver-sweep fleet-openloop

A regeneration changes the simulator's pinned behaviour; list its diff in
the change log of the commit that makes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
PIN_DIR = HERE / "pins"


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def result_digest(result) -> str:
    """Digest of a ``RunResult``'s simulated statistics."""
    return _digest(
        {
            "counters": result.counters.as_dict(),
            "timer_ns": result.timer.as_dict(),
            "total_time_ns": result.total_time_ns,
        }
    )


def doc_digest(doc: dict[str, Any]) -> str:
    """Digest of a result document without its per-run ``meta`` block
    (job id, worker pid, wall time)."""
    return _digest({k: v for k, v in doc.items() if k != "meta"})


def spec_id(spec: dict[str, Any]) -> str:
    """Pin key of a fleet job spec."""
    return _digest(spec)[:16]


def load(workload: str) -> dict[str, str]:
    """The committed pins of one workload: operation key -> digest."""
    with open(PIN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["pins"]


class PinChecker:
    """Compares digests against pinned ones.  Without pins (smoke runs),
    repeats of an operation are checked against its first digest."""

    def __init__(self, pinned: Optional[dict[str, str]]) -> None:
        self.pinned = pinned
        self.first_seen: dict[str, str] = {}

    def check(self, op_key: str, digest: str) -> bool:
        if self.pinned is not None:
            return self.pinned.get(op_key) == digest
        return self.first_seen.setdefault(op_key, digest) == digest


# -- regeneration -------------------------------------------------------------
def _regen_sgemm() -> dict[str, Any]:
    from repro.experiments.runner import simulate

    import inputs

    return {"point0": result_digest(simulate(*inputs.sgemm_inputs()))}


def _regen_sweep() -> dict[str, Any]:
    from repro.experiments.runner import run_sweep

    import inputs

    results = run_sweep(inputs.sweep_points(), workers=2, cache=False, mem_cache_mb=0)
    return {f"point{i}": result_digest(r) for i, r in enumerate(results)}


def _regen_fleet() -> dict[str, Any]:
    """Solo ``simulate()`` of every spec of both pool slices, serialized as
    the service serializes it."""
    from repro.experiments.runner import simulate
    from repro.serve.jobs import JobSpec
    from repro.serve.results import result_to_doc

    import inputs

    out = {}
    for spec in inputs.fleet_spec_pool() + inputs.fleet_spec_pool(held_out=True):
        workload, setup = JobSpec.from_dict(spec).build()
        out[spec_id(spec)] = doc_digest(result_to_doc(simulate(workload, setup)))
    return out


REGENERATORS = {
    "sgemm-oversub": _regen_sgemm,
    "solver-sweep": _regen_sweep,
    "fleet-openloop": _regen_fleet,
}


def regenerate(workload: str) -> None:
    from repro.experiments.runner import code_version

    t0 = time.perf_counter()
    body = {
        "pins": REGENERATORS[workload](),
        "generated_with_code_version": code_version(),
    }
    PIN_DIR.mkdir(exist_ok=True)
    path = PIN_DIR / f"{workload}.json"
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(body['pins'])} pins, {time.perf_counter() - t0:.1f}s)")


def main(argv=None) -> int:
    import run  # puts the repository's sources on the path

    run.bootstrap()
    parser = argparse.ArgumentParser(description="Regenerate correctness pins.")
    parser.add_argument("--regenerate", nargs="+", required=True,
                        choices=sorted(REGENERATORS), metavar="WORKLOAD")
    args = parser.parse_args(argv)
    for workload in args.regenerate:
        regenerate(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
