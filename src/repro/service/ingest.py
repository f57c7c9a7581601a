"""Pluggable, non-blocking ingest sources for the fleet service loop.

The service loop (which ``repro monitor`` and ``repro serve`` both run)
*polls* each path's source every cycle for whatever is available right
now and moves on — a slow or quiet source must never stall the fleet.
Every source implements the same small protocol:

* ``poll(max_records)`` — up to ``max_records`` new ``(send_time,
  delay)`` pairs, returning immediately (possibly empty);
* ``exhausted`` — ``True`` once the source can never produce again
  (end of a finite stream, EOF without follow);
* ``close()`` — release any handle (idempotent).

Four implementations cover the deployment shapes:

* :class:`IterableSource` — any in-process iterator (synthetic demo
  streams, replayed lists, generators);
* :class:`QueueSource` — a thread-safe handoff from producer threads
  (live socket readers, test harnesses); ``push``/``end`` feed it;
* :class:`TailSource` — an observation CSV on disk, read incrementally;
  with ``follow=True`` it keeps polling for appended lines (``tail -f``
  semantics, partial trailing lines buffered until the newline lands);
* :class:`StreamSource` — an open text stream (``sys.stdin``); uses
  ``select`` when the stream has a real file descriptor so a silent
  pipe never blocks the loop, and plain reads otherwise.

CSV rows are ``send_time,delay``, with the literal ``lost`` for a lost
probe.  A ``send_time,...`` header is optional, and is read as a header
only as a source's first row (blank lines aside).  Malformed rows raise
— a corrupt feed should be loud, not silently skipped — and so does a
header row anywhere later, naming the source and line.  (The batch
reader :func:`repro.measurement.traceio.load_observation` behind
``identify`` and ``bound`` requires the header.)
"""

from __future__ import annotations

import codecs
import os
import queue as queue_module
import select
from collections import deque
from pathlib import Path
from typing import IO, Deque, Iterable, List, Optional, Tuple

from repro import obs
from repro.measurement.traceio import LOST_MARKER

__all__ = [
    "IngestSource",
    "IterableSource",
    "QueueSource",
    "TailSource",
    "StreamSource",
]

_LOG = obs.get_logger(__name__)

Record = Tuple[float, float]


class IngestSource:
    """Base class: the poll/exhausted/close protocol (see module docs)."""

    exhausted: bool = False

    def poll(self, max_records: int) -> List[Record]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> str:
        """One-line label for the HTTP API and telemetry."""
        return type(self).__name__


class _Rows:
    """The row parser of one CSV source; counts lines for its errors."""

    __slots__ = ("where", "line", "started")

    def __init__(self, where: str):
        self.where = where
        self.line = 0
        self.started = False

    def parse(self, line: str) -> Optional[Record]:
        """One CSV line -> record; ``None`` for blank lines and a header
        in first position."""
        self.line += 1
        text = line.strip()
        if not text:
            return None
        first, _, rest = text.partition(",")
        started, self.started = self.started, True
        if first.strip() == "send_time":
            if started:
                raise ValueError(f"{self.where}:{self.line}: header row "
                                 f"{text!r} after the first row")
            return None
        cell = rest.partition(",")[0].strip()
        try:
            delay = float("nan") if cell.lower() == LOST_MARKER else float(cell)
            return float(first), delay
        except ValueError:
            raise ValueError(f"{self.where}:{self.line}: bad observation "
                             f"row {text!r}")


class IterableSource(IngestSource):
    """Wrap any ``(send_time, delay)`` iterable (demo streams, replays)."""

    def __init__(self, records: Iterable[Record]):
        self._iterator = iter(records)

    def poll(self, max_records: int) -> List[Record]:
        out: List[Record] = []
        while len(out) < max_records:
            try:
                send_time, delay = next(self._iterator)
            except StopIteration:
                self.exhausted = True
                break
            out.append((float(send_time), float(delay)))
        return out


class QueueSource(IngestSource):
    """A thread-safe handoff: producers ``push`` records, the loop polls.

    ``end()`` (or pushing ``None``) marks the stream finished once the
    queue drains.  The queue is unbounded by default — backpressure is
    the *service's* job (shed/coarsen), not the transport's.
    """

    def __init__(self, maxsize: int = 0):
        self.queue: "queue_module.Queue" = queue_module.Queue(maxsize)
        self._ended = False

    def push(self, send_time: float, delay: float) -> None:
        """Producer side: enqueue one record."""
        self.queue.put((float(send_time), float(delay)))

    def end(self) -> None:
        """Producer side: no more records after what is queued."""
        self.queue.put(None)

    def poll(self, max_records: int) -> List[Record]:
        out: List[Record] = []
        while len(out) < max_records:
            try:
                item = self.queue.get_nowait()
            except queue_module.Empty:
                break
            if item is None:
                self._ended = True
                self.exhausted = True
                break
            out.append(item)
        return out


class TailSource(IngestSource):
    """Incrementally read (and optionally follow) an observation CSV.

    Without ``follow`` the source is exhausted at EOF; with it, EOF just
    means "nothing new yet" and later appends are picked up on the next
    poll.  A partially written trailing line (no newline yet) is
    buffered, never parsed early.
    """

    def __init__(self, path, follow: bool = False):
        self.path = Path(path)
        self.follow = bool(follow)
        self._handle: Optional[IO[str]] = self.path.open()
        self._partial = ""
        self._rows = _Rows(str(self.path))

    def describe(self) -> str:
        mode = "follow" if self.follow else "eof"
        return f"tail:{self.path}:{mode}"

    def poll(self, max_records: int) -> List[Record]:
        out: List[Record] = []
        if self._handle is None:
            return out
        while len(out) < max_records:
            line = self._handle.readline()
            if not line:
                if not self.follow:
                    self.exhausted = True
                    self.close()
                break
            if not line.endswith("\n"):
                # Mid-append: stash and retry once the writer finishes
                # the line.  Without follow, EOF is final — parse it.
                if self.follow:
                    self._partial += line
                    break
                line = self._partial + line
                self._partial = ""
            elif self._partial:
                line = self._partial + line
                self._partial = ""
            record = self._rows.parse(line)
            if record is not None:
                out.append(record)
        return out

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class StreamSource(IngestSource):
    """Poll an open text stream (``sys.stdin``, a socket makefile).

    Streams with a real file descriptor are polled via ``select`` so an
    idle pipe costs nothing and never blocks.  Their bytes are read
    straight from the descriptor into the source's own line buffer: a
    text wrapper's read-ahead would hold lines that ``select`` cannot
    see until the writer writes again.  Plain in-memory streams
    (``io.StringIO`` in tests) are read straight through to EOF.
    """

    def __init__(self, stream: IO[str], name: Optional[str] = None):
        self._stream = stream
        self.name = name or getattr(stream, "name", "<stream>")
        self._rows = _Rows(self.name)
        try:
            self._fd: Optional[int] = stream.fileno()
        except (AttributeError, OSError):
            self._fd = None
        self._decoder = codecs.getincrementaldecoder(
            getattr(stream, "encoding", None) or "utf-8")()
        self._lines: Deque[str] = deque()
        self._partial = ""
        self._eof = False

    def describe(self) -> str:
        return f"stream:{self.name}"

    def _fill(self) -> None:
        """Split what the descriptor holds right now into lines."""
        if not select.select([self._fd], [], [], 0)[0]:
            return
        chunk = os.read(self._fd, 1 << 16)
        self._eof = not chunk
        text = self._decoder.decode(chunk, final=self._eof)
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        if self._eof and self._partial:
            lines.append(self._partial)  # a last line without newline
            self._partial = ""
        self._lines.extend(lines)

    def _next_line(self) -> Optional[str]:
        """The next complete line, or ``None`` if none is available now."""
        if self._fd is None:
            line = self._stream.readline()
            if not line:
                self.exhausted = True
                return None
            return line
        if not self._lines and not self._eof:
            self._fill()
        if self._lines:
            return self._lines.popleft()
        self.exhausted = self._eof
        return None

    def poll(self, max_records: int) -> List[Record]:
        out: List[Record] = []
        while len(out) < max_records:
            line = self._next_line()
            if line is None:
                break
            record = self._rows.parse(line)
            if record is not None:
                out.append(record)
        return out

    def close(self) -> None:
        try:
            self._stream.close()
        except Exception:  # noqa: BLE001 - closing stdin can object
            pass
