"""Sequential-read detection driving read-ahead prefetch.

Each open file handle owns one :class:`ReadAhead` detector.  It watches
the stream of read offsets: once ``READAHEAD_MIN_RUN`` consecutive reads
land exactly where the previous one ended, the stream is classified
sequential and the next cache miss widens its backing fetch by up to
``READAHEAD_WINDOW`` bytes past the requested range.  The extra bytes go
into the page cache, so the following reads hit DRAM instead of paying
another RPC round trip — the aggregation win on the read path.

Everything here is a pure deterministic state machine over offsets; any
random access resets the run counter (and the window, so a re-detected
stream ramps up again from one window).
"""

from __future__ import annotations

from repro.cache.config import READAHEAD_MIN_RUN, READAHEAD_WINDOW


class ReadAhead:
    """Per-handle sequentiality detector + prefetch window sizing."""

    def __init__(self):
        #: where the next read of a sequential stream would start
        self.next_expected = 0
        #: consecutive sequential reads observed (incl. the first)
        self.run = 0
        #: total bytes the engine has asked to prefetch (metrics feed)
        self.prefetched_bytes = 0

    @property
    def sequential(self) -> bool:
        return self.run >= READAHEAD_MIN_RUN

    def observe(self, offset: int, nbytes: int) -> None:
        """Record one read; call before :meth:`window`."""
        if self.run and offset == self.next_expected:
            self.run += 1
        else:
            self.run = 1
        self.next_expected = offset + nbytes

    def window(self) -> int:
        """Bytes to fetch *past* the current read, 0 if not sequential."""
        if not self.sequential:
            return 0
        return READAHEAD_WINDOW

    def note_prefetch(self, nbytes: int) -> None:
        self.prefetched_bytes += nbytes
