"""cuFFT-style forward + inverse FFT page-access workload.

An out-of-place complex-to-complex FFT pair (Section III-B runs "forward
and inverse cuFFT").  Large 1-D FFTs are executed as a small number of
batched passes over the signal: each pass streams the whole buffer, with
early passes unit-stride and later passes visiting butterfly groups whose
*page-level* order is a strided/bit-reversal-flavoured permutation.

What matters to the UVM driver is reproduced:

* two buffers (input and output of the out-of-place transform),
* a few full sweeps per direction (so the total fault count is small
  relative to the page-touch kernels - cuFFT has by far the fewest
  faults in Table I),
* sequential sweeps interleaved with strided ones, giving the prefetcher
  dense VABlock saturation on some passes and scattered single faults on
  others (Fig. 7's cuFFT panel shows banded sweeps).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.table import StreamTableBuilder
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import bytes_to_pages
from repro.workloads.base import Workload, WorkloadBuild, chunk_indices


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Bit-reversal order of ``range(n)`` for power-of-two ``n``."""
    bits = max(1, (n - 1).bit_length())
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    work = idx.copy()
    for _ in range(bits):
        rev = (rev << 1) | (work & 1)
        work >>= 1
    return rev[rev < n] if (1 << bits) != n else rev


class CufftWorkload(Workload):
    """Forward + inverse out-of-place FFT over two managed buffers."""

    name = "cufft"

    def __init__(
        self,
        signal_bytes: int = 32 << 20,
        passes_per_direction: int = 2,
        pages_per_stream: int = 16,
    ) -> None:
        if signal_bytes <= 0:
            raise ConfigurationError("signal_bytes must be positive")
        if passes_per_direction < 1:
            raise ConfigurationError("need at least one pass per direction")
        if pages_per_stream <= 0:
            raise ConfigurationError("pages_per_stream must be positive")
        self.signal_bytes = signal_bytes
        self.passes_per_direction = passes_per_direction
        self.pages_per_stream = pages_per_stream

    def required_bytes(self) -> int:
        return 2 * self.signal_bytes

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        src = space.malloc_managed(self.signal_bytes, name="signal")
        dst = space.malloc_managed(self.signal_bytes, name="spectrum")
        npages = bytes_to_pages(self.signal_bytes)
        rev = _bit_reverse_permutation(1 << (npages - 1).bit_length())
        rev = rev[rev < npages]

        streams = StreamTableBuilder()
        sid = 0
        # forward: read src, write dst; inverse: read dst, write src.
        directions = [(src, dst), (dst, src)]
        for read_rng, write_rng in directions:
            for p in range(self.passes_per_direction):
                order = np.arange(npages, dtype=np.int64) if p % 2 == 0 else rev
                read_pages = read_rng.start_page + order
                write_pages = write_rng.start_page + order
                for lo, hi in chunk_indices(npages, self.pages_per_stream):
                    # butterfly: read a group, then write the transform.
                    pages = np.concatenate([read_pages[lo:hi], write_pages[lo:hi]])
                    writes = np.zeros(pages.shape, dtype=bool)
                    writes[hi - lo :] = True
                    streams.add(sid, pages, writes)
                    sid += 1
        return WorkloadBuild.single(streams.finish(), {"signal": src, "spectrum": dst})
