"""Tests for the non-blocking ingest sources."""

import io
import math

import pytest

from repro.service.ingest import (IterableSource, QueueSource, StreamSource,
                                  TailSource)


class TestIterableSource:
    def test_polls_in_bursts_then_exhausts(self):
        source = IterableSource((float(i), 0.01 * i) for i in range(5))
        assert source.poll(3) == [(0.0, 0.0), (1.0, 0.01), (2.0, 0.02)]
        assert not source.exhausted
        assert source.poll(3) == [(3.0, 0.03), (4.0, 0.04)]
        assert source.exhausted
        assert source.poll(3) == []

    def test_empty_iterable_exhausts_immediately(self):
        source = IterableSource([])
        assert source.poll(4) == []
        assert source.exhausted


class TestQueueSource:
    def test_poll_drains_without_blocking(self):
        source = QueueSource()
        assert source.poll(4) == []  # empty queue returns immediately
        source.push(0.0, 0.01)
        source.push(0.02, 0.02)
        assert source.poll(4) == [(0.0, 0.01), (0.02, 0.02)]
        assert not source.exhausted

    def test_end_marks_exhausted_after_drain(self):
        source = QueueSource()
        source.push(0.0, 0.01)
        source.end()
        assert source.poll(10) == [(0.0, 0.01)]
        assert source.exhausted

    def test_burst_limit_respected(self):
        source = QueueSource()
        for i in range(5):
            source.push(float(i), 0.01)
        assert len(source.poll(2)) == 2
        assert len(source.poll(10)) == 3


class TestTailSource:
    def _write(self, path, rows, header=True):
        lines = (["send_time,delay"] if header else []) + rows
        path.write_text("\n".join(lines) + "\n")

    def test_reads_csv_and_exhausts_at_eof(self, tmp_path):
        csv = tmp_path / "obs.csv"
        self._write(csv, ["0.0,0.021", "0.02,lost", "0.04,0.023"])
        source = TailSource(csv)
        records = source.poll(10)
        assert len(records) == 3
        assert records[0] == (0.0, 0.021)
        assert math.isnan(records[1][1])  # 'lost' marker
        assert records[2] == (0.04, 0.023)
        assert source.exhausted

    def test_follow_picks_up_appends(self, tmp_path):
        csv = tmp_path / "obs.csv"
        self._write(csv, ["0.0,0.021"])
        source = TailSource(csv, follow=True)
        assert source.poll(10) == [(0.0, 0.021)]
        assert not source.exhausted  # EOF just means "nothing yet"
        with csv.open("a") as handle:
            handle.write("0.02,0.022\n")
        assert source.poll(10) == [(0.02, 0.022)]
        source.close()

    def test_follow_buffers_partial_trailing_line(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("send_time,delay\n0.0,0.021\n0.02,0.0")
        source = TailSource(csv, follow=True)
        assert source.poll(10) == [(0.0, 0.021)]  # partial row held back
        with csv.open("a") as handle:
            handle.write("22\n")
        assert source.poll(10) == [(0.02, 0.022)]
        source.close()

    def test_malformed_row_raises(self, tmp_path):
        csv = tmp_path / "obs.csv"
        self._write(csv, ["0.0,garbage"])
        source = TailSource(csv)
        with pytest.raises(ValueError, match="bad observation row"):
            source.poll(10)

    def test_header_is_read_only_as_the_first_row(self, tmp_path):
        bare = tmp_path / "bare.csv"
        self._write(bare, ["0.0,0.021", "0.02,0.022"], header=False)
        assert TailSource(bare).poll(10) == [(0.0, 0.021), (0.02, 0.022)]
        blank_first = tmp_path / "blank.csv"
        blank_first.write_text("\nsend_time,delay\n0.0,0.021\n")
        assert TailSource(blank_first).poll(10) == [(0.0, 0.021)]
        repeated = tmp_path / "repeated.csv"
        self._write(repeated, ["0.0,0.021", "send_time,delay", "0.02,0.022"])
        source = TailSource(repeated)
        with pytest.raises(ValueError, match=r"repeated\.csv:3: header row"):
            source.poll(10)
        source.close()

    def test_missing_file_raises_at_construction(self, tmp_path):
        with pytest.raises(OSError):
            TailSource(tmp_path / "ghost.csv")

    def test_close_is_idempotent(self, tmp_path):
        csv = tmp_path / "obs.csv"
        self._write(csv, ["0.0,0.021"])
        source = TailSource(csv)
        source.close()
        source.close()
        assert source.poll(10) == []


class TestStreamSource:
    def test_reads_in_memory_stream_to_eof(self):
        stream = io.StringIO("send_time,delay\n0.0,0.021\n0.02,lost\n")
        source = StreamSource(stream, name="test")
        records = source.poll(10)
        assert records[0] == (0.0, 0.021)
        assert math.isnan(records[1][1])
        assert source.exhausted

    def test_header_after_the_first_row_raises(self):
        stream = io.StringIO("0.0,0.021\n\nsend_time,delay\n")
        source = StreamSource(stream, name="stdin")
        with pytest.raises(ValueError, match="stdin:3: header row"):
            source.poll(10)

    def test_burst_limit(self):
        stream = io.StringIO("".join(f"{i * 0.02},0.02\n" for i in range(6)))
        source = StreamSource(stream, name="test")
        assert len(source.poll(4)) == 4
        assert not source.exhausted

    def test_real_pipe_does_not_block_when_silent(self):
        import os

        read_fd, write_fd = os.pipe()
        try:
            with os.fdopen(read_fd, "r") as reader:
                source = StreamSource(reader, name="pipe")
                assert source.poll(4) == []  # select says nothing ready
                assert not source.exhausted
                os.write(write_fd, b"0.0,0.021\n")
                assert source.poll(4) == [(0.0, 0.021)]
        finally:
            os.close(write_fd)

    def test_real_pipe_hands_over_every_line_already_read(self):
        """Lines that arrived in one write come out over later polls
        without waiting for the writer to write again or close."""
        import os

        read_fd, write_fd = os.pipe()
        try:
            with os.fdopen(read_fd, "r") as reader:
                source = StreamSource(reader, name="pipe")
                os.write(write_fd, b"send_time,delay\n0.0,0.021\n"
                                   b"0.02,lost\n0.04,0.02")
                assert source.poll(1) == [(0.0, 0.021)]
                (record,) = source.poll(4)  # the partial row waits
                assert math.isnan(record[1])
                os.write(write_fd, b"3\n\nsend_time,delay\n")
                assert source.poll(1) == [(0.04, 0.023)]
                with pytest.raises(ValueError, match="pipe:6: header row"):
                    source.poll(4)
        finally:
            os.close(write_fd)

    def test_real_pipe_exhausts_at_eof_with_a_last_partial_line(self):
        import os

        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd, "r") as reader:
            source = StreamSource(reader, name="pipe")
            os.write(write_fd, b"0.0,0.021\n0.02,0.022")
            os.close(write_fd)
            assert source.poll(10) == [(0.0, 0.021), (0.02, 0.022)]
            assert source.poll(10) == []
            assert source.exhausted


class TestIngestLatencyStamping:
    """Ingest stamps feed the tracing layer's ``ingest`` stage: they come
    from the monotonic clock at admission, so they must stay ordered even
    when the *send times* in the feed are out of order or duplicated
    (reordered probes, replayed rows)."""

    @staticmethod
    def _drive(source, window=4):
        from repro.streaming.windows import SlidingWindowAssembler

        assembler = SlidingWindowAssembler(window=window, hop=window)
        emitted = []
        while not source.exhausted:
            # One-record bursts, so every record gets its own stamp.
            for send_time, delay in source.poll(64):
                completed = assembler.push(send_time, delay)
                if completed is not None:
                    emitted.append(completed)
        return assembler, emitted

    def test_tail_source_out_of_order_send_times_stamp_monotone(
            self, tmp_path):
        from repro.obs.trace import enable_tracing

        csv = tmp_path / "obs.csv"
        # send_times go 3, 1, 2, 1 — thoroughly out of order.
        csv.write_text("3.0,0.021\n1.0,0.022\n2.0,0.023\n1.0,0.024\n")
        enable_tracing()
        assembler, emitted = self._drive(TailSource(csv))
        stamps = list(assembler._recent(assembler._stamps))
        assert stamps == sorted(stamps)
        assert len(emitted) == 1
        trace = emitted[0].trace
        assert trace is not None
        assert trace.ingest_first <= trace.ingest_last <= trace.assembled_at

    def test_stream_source_duplicate_records_stamp_monotone(self):
        from repro.obs.trace import enable_tracing

        stream = io.StringIO("0.0,0.021\n" * 8)  # 8 identical rows
        enable_tracing()
        assembler, emitted = self._drive(StreamSource(stream, name="dup"),
                                         window=4)
        stamps = list(assembler._recent(assembler._stamps))
        assert stamps == sorted(stamps)
        assert len(emitted) == 2
        # Both windows' traces are internally and mutually ordered.
        first, second = (w.trace for w in emitted)
        assert first.ingest_last <= second.ingest_first or \
            first.ingest_last <= second.ingest_last
        for trace in (first, second):
            assert trace.stages()["ingest"] >= 0.0

    def test_stamps_not_collected_when_tracing_off(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("0.0,0.021\n1.0,0.022\n")
        assembler, _ = self._drive(TailSource(csv))
        assert assembler._stamps is None
