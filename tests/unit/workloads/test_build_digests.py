"""Every workload's build output matches its committed golden digest.

The digests in ``tests/fixtures/build_digests.json`` were generated from
the per-stream loop builders; a build that drifts by one page, one
writes flag, or one FLOP changes every downstream counter.  Regenerate
only on purpose: ``python -m tests.tools.build_digests --regenerate``.
"""

import pytest

from tests.tools import build_digests


@pytest.fixture(scope="module")
def pinned():
    return build_digests.load()


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(build_digests.case_names())


def test_fixture_covers_a_multi_kernel_build(pinned):
    assert any(len(d["kernels"]) > 1 for d in pinned.values())
    assert any(
        k["host_before"] is not None for d in pinned.values() for k in d["kernels"]
    )


@pytest.mark.parametrize("case", build_digests.case_names())
def test_build_matches_digest(case, pinned):
    assert build_digests.digest_case(case) == pinned[case]
