"""Golden digests of every workload's build output.

A build is the input the whole simulation runs on, so any change to how
workloads emit their streams must leave it bit-identical.  This module
digests each build - per stream its id, pages, writes mask (or its
absence), FLOPs per access; the kernel boundaries and host accesses of
multi-kernel builds; and the managed ranges - and pins the digests in
``tests/fixtures/build_digests.json``.

Check the current code against the file::

    PYTHONPATH=src python -m tests.tools.build_digests

Rewrite the file (only when a build is meant to change; record why)::

    PYTHONPATH=src python -m tests.tools.build_digests --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments.runner import ExperimentSetup
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.registry import all_workload_names, make_workload

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "build_digests.json"

#: managed sizes (MiB) and build seeds every workload is digested at.
SIZES_MIB = (4, 20)
SEEDS = (0x5EED, 7)


def case_names() -> list[str]:
    return [
        f"{name}/{mib}MiB/seed{seed}"
        for name in all_workload_names()
        for mib in SIZES_MIB
        for seed in SEEDS
    ]


def _update_array(h, arr: np.ndarray, dtype) -> None:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    h.update(str(arr.size).encode())
    h.update(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def digest_build(space, build) -> dict:
    """Digest one ``(space, build)`` pair into a JSON-able dict."""
    streams = build.streams
    h = hashlib.sha256()
    for s in streams:
        h.update(f"id={s.stream_id};flops={float(s.flops_per_access)!r};".encode())
        _update_array(h, s.pages, np.int64)
        if s.writes is None:
            h.update(b"writes=None")
        else:
            _update_array(h, s.writes, np.bool_)
    kernels = []
    if build.phases is None:
        kernels.append({"streams": len(streams), "host_before": None})
    else:
        for phase in build.phases:
            host = phase.host_before
            host_digest = None
            if host is not None:
                hh = hashlib.sha256(f"writes={bool(host.writes)};".encode())
                _update_array(hh, host.pages, np.int64)
                host_digest = hh.hexdigest()
            kernels.append({"streams": len(phase.streams), "host_before": host_digest})
    ranges = [
        [
            name,
            r.name,
            int(r.index),
            int(r.start_page),
            int(r.npages),
            int(r.npages_aligned),
            int(r.nbytes),
            str(space.advise_of_range(r.index)),
        ]
        for name, r in build.ranges.items()
    ]
    return {
        "n_streams": len(streams),
        "n_accesses": int(sum(len(s.pages) for s in streams)),
        "streams": h.hexdigest(),
        "kernels": kernels,
        "ranges": hashlib.sha256(json.dumps(ranges).encode()).hexdigest(),
    }


def digest_case(case: str) -> dict:
    name, mib, seed = case.split("/")
    setup = ExperimentSetup()
    space = setup.make_space()
    workload = make_workload(name, int(mib[: -len("MiB")]) * MiB)
    build = workload.build(space, SimRng(int(seed[len("seed") :])).fork("workload"))
    return digest_build(space, build)


def compute_all() -> dict:
    return {case: digest_case(case) for case in case_names()}


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the committed digests"
    )
    args = parser.parse_args(argv)
    current = compute_all()
    if args.regenerate:
        FIXTURE.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} build digests to {FIXTURE}")
        return 0
    pinned = load()
    bad = sorted(c for c in set(pinned) | set(current) if pinned.get(c) != current.get(c))
    for case in bad:
        print(f"MISMATCH {case}: pinned={pinned.get(case)} current={current.get(case)}")
    print(f"{len(current) - len(bad)}/{len(current)} builds match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
