"""Session framer, phase barrier, and flush accounting.

The framer is driven the way an asyncio transport drives a
``BufferedProtocol``: copy a read into ``get_buffer()`` and call
``buffer_updated(n)``. Regression coverage for the wire-path hazards the
live controllers depend on: frames split or batched across reads,
corrupt length headers, EOF mid-frame, stale and duplicate replies, tx
bytes charged for writes that never reached the socket, and real handler
errors silently downgraded to "missing".
"""

import asyncio
import struct

import pytest

from repro.live.protocol import MAX_FRAME, ProtocolError, encode, read_message
from repro.live.sessions import PhaseBarrier, Session, SessionClosed, gather_phase
from repro.obs.procfs import ComponentUsageMeter


class _FakeTransport:
    """Transport stand-in; ``fail_write`` models a failed eager send."""

    def __init__(self, fail_write=False):
        self.fail_write = fail_write
        self.written = bytearray()
        self.closing = False
        self.aborted = False

    def write(self, data):
        self.written += data
        if self.fail_write:
            self.closing = True  # the transport force-closes on send errors

    def is_closing(self):
        return self.closing

    def abort(self):
        self.aborted = self.closing = True

    def close(self):
        self.closing = True


def _session(transport=None, meter=None, peer_id="peer-under-test"):
    session = Session(peer_id, meter=meter)
    session.connection_made(transport or _FakeTransport())
    return session


def _deliver(session, data):
    """One socket read of ``data``, exactly as the transport hands it over."""
    buf = session.get_buffer(-1)
    buf[: len(data)] = data
    session.buffer_updated(len(data))


def _reply(epoch=1, stage_id="s-000"):
    return encode(
        {
            "kind": "metrics_reply",
            "epoch": epoch,
            "stage_id": stage_id,
            "job_id": "job-0",
            "data_iops": 10.0,
            "metadata_iops": 2.0,
        },
        "binary2",
    )


def _recorder():
    got = []
    return got, lambda session, message: got.append((session, message))


class TestFramer:
    def test_frame_split_at_every_byte_offset(self):
        update = encode({"kind": "partition_update", "added": [{"stage_id": "x"}]})
        data = _reply() + update
        for cut in range(1, len(data)):
            session = _session()
            session.oob_kinds = frozenset({"partition_update"})
            got, on_reply = _recorder()
            PhaseBarrier("metrics_reply", 1, on_reply).add(session)
            _deliver(session, data[:cut])
            _deliver(session, data[cut:])
            assert [m["data_iops"] for _, m in got] == [10.0], cut
            assert [m["kind"] for m in session.oob] == ["partition_update"], cut
            assert session.stale_messages == 0
            assert session.rx_bytes == len(data)
            assert session.connected

    def test_many_frames_in_one_read(self):
        session = _session()
        session.oob_kinds = frozenset({"partition_update"})
        got, on_reply = _recorder()
        PhaseBarrier("metrics_reply", 1, on_reply).add(session)
        update = encode({"kind": "partition_update", "added": []})
        burst = update * 20 + _reply() + _reply() * 5 + _reply(epoch=0) * 4
        _deliver(session, burst)
        assert len(got) == 1
        assert len(session.oob) == 20
        assert session.stale_messages == 9  # 5 duplicates + 4 late

    def test_length_header_over_cap_kills_session(self):
        async def scenario():
            session = _session()
            barrier = PhaseBarrier("metrics_reply", 1)
            barrier.add(session)
            _deliver(session, struct.pack(">I", MAX_FRAME + 1) + b"\x00" * 8)
            return session, await gather_phase(barrier, 5.0)

        session, (missing, timed_out) = asyncio.run(scenario())
        assert missing == [session] and not timed_out
        assert not session.connected
        assert session.transport.aborted

    def test_undecodable_body_kills_session(self):
        session = _session()
        barrier = PhaseBarrier("metrics_reply", 1)
        barrier.add(session)
        _deliver(session, struct.pack(">I", 3) + b"{x}")
        assert not session.connected and barrier.pending == 0

    def test_eof_mid_frame_leaves_reply_missing(self):
        async def scenario():
            session = _session()
            barrier = PhaseBarrier("metrics_reply", 1)
            barrier.add(session)
            frame = _reply()
            _deliver(session, frame[: len(frame) // 2])
            asyncio.get_running_loop().call_soon(session.connection_lost, None)
            return session, await gather_phase(barrier, 5.0)

        session, (missing, timed_out) = asyncio.run(scenario())
        assert missing == [session] and not timed_out
        assert not session.connected


class TestPhaseBarrier:
    def test_duplicate_and_late_replies_are_stale_never_double_counted(self):
        async def scenario():
            a, b = _session(peer_id="a"), _session(peer_id="b")
            got, on_reply = _recorder()
            barrier = PhaseBarrier("metrics_reply", 7, on_reply)
            barrier.add(a)
            barrier.add(b)
            _deliver(a, _reply(epoch=7))
            _deliver(a, _reply(epoch=7))  # duplicate: must not stand in for b
            assert barrier.pending == 1
            _deliver(b, _reply(epoch=6))  # an older epoch's straggler
            loop = asyncio.get_running_loop()
            loop.call_later(0.01, _deliver, b, _reply(epoch=7))
            missing, timed_out = await gather_phase(barrier, 5.0)
            _deliver(b, _reply(epoch=7))  # after the phase closed
            return a, b, got, missing, timed_out

        a, b, got, missing, timed_out = asyncio.run(scenario())
        assert [s for s, _ in got] == [a, b]
        assert missing == [] and not timed_out
        assert a.stale_messages == 1
        assert b.stale_messages == 2

    def test_oob_frames_bypass_the_phase(self):
        session = _session()
        session.oob_kinds = frozenset({"partition_update"})
        barrier = PhaseBarrier("agg_metrics_reply", 3)
        barrier.add(session)
        _deliver(session, encode({"kind": "partition_update", "epoch": 3}))
        assert barrier.pending == 1
        assert session.stale_messages == 0
        assert session.oob == [{"kind": "partition_update", "epoch": 3}]

    def test_deadline_leaves_partial_phase(self):
        async def scenario():
            fast = [_session(peer_id=f"fast-{i}") for i in range(3)]
            quiet = _session(peer_id="quiet")
            got, on_reply = _recorder()
            barrier = PhaseBarrier("metrics_reply", 1, on_reply)
            for s in fast + [quiet]:
                barrier.add(s)
            loop = asyncio.get_running_loop()
            for s in fast:
                loop.call_soon(_deliver, s, _reply())
            missing, timed_out = await gather_phase(barrier, 0.05)
            return fast, quiet, got, missing, timed_out

        fast, quiet, got, missing, timed_out = asyncio.run(scenario())
        assert timed_out
        assert missing == [quiet]
        assert [s for s, _ in got] == fast
        assert quiet._barrier is None  # disarmed: a late reply is stale

    def test_no_task_is_created_per_session(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro):
                created.append(coro)
                return asyncio.Task(coro, loop=loop)

            loop.set_task_factory(factory)
            sessions = [_session(peer_id=f"s-{i}") for i in range(200)]
            barrier = PhaseBarrier("metrics_reply", 1)
            for s in sessions:
                barrier.add(s)
                s.feed({"kind": "collect_req", "epoch": 1})
                await s.flush()
                loop.call_later(0.001, _deliver, s, _reply())
            missing, _ = await gather_phase(barrier, 5.0)
            loop.set_task_factory(None)
            return created, missing

        created, missing = asyncio.run(scenario())
        assert missing == []
        assert created == []


class TestGatherPhaseErrors:
    def test_handler_error_propagates_not_missing(self):
        """A real error in reply handling must raise, not be recorded as a
        missing session."""

        async def scenario():
            good, bad = _session(peer_id="good"), _session(peer_id="bad")

            def on_reply(session, message):
                if session is bad:
                    raise ProtocolError("malformed reply")

            barrier = PhaseBarrier("metrics_reply", 1, on_reply)
            barrier.add(good)
            barrier.add(bad)
            loop = asyncio.get_running_loop()
            loop.call_soon(_deliver, good, _reply())
            loop.call_soon(_deliver, bad, _reply())
            await gather_phase(barrier, 5.0)

        with pytest.raises(ProtocolError, match="malformed reply"):
            asyncio.run(scenario())

    def test_closed_session_stays_missing(self):
        async def scenario():
            alive, dead = _session(peer_id="alive"), _session(peer_id="dead")
            barrier = PhaseBarrier("metrics_reply", 1)
            barrier.add(alive)
            barrier.add(dead)
            loop = asyncio.get_running_loop()
            loop.call_soon(_deliver, alive, _reply())
            loop.call_soon(dead.connection_lost, ConnectionResetError())
            return dead, await gather_phase(barrier, 5.0)

        dead, (missing, timed_out) = asyncio.run(scenario())
        assert missing == [dead]
        assert not timed_out  # the dead member counted down; no deadline

    def test_plain_deadline_reports_missing(self):
        async def scenario():
            barrier = PhaseBarrier("metrics_reply", 1)
            barrier.add(_session())
            return await gather_phase(barrier, 0.05)

        missing, timed_out = asyncio.run(scenario())
        assert timed_out
        assert [s.peer_id for s in missing] == ["peer-under-test"]


class TestFlushAccounting:
    def test_tx_charged_only_on_flush_success(self):
        async def scenario():
            transport = _FakeTransport()
            meter = ComponentUsageMeter("test")
            session = _session(transport, meter)
            session.feed({"kind": "rule", "epoch": 1, "stage_id": "s",
                          "data_iops_limit": 1.0})
            session.feed({"kind": "rule", "epoch": 1, "stage_id": "t",
                          "data_iops_limit": 2.0})
            # Buffered, not written: nothing charged yet.
            assert session.tx_bytes == 0
            assert meter.tx_bytes == 0
            assert session.pending_frames == 2
            await session.flush()
            return session, transport, meter

        session, transport, meter = asyncio.run(scenario())
        assert session.tx_bytes == len(transport.written) > 0
        assert meter.tx_bytes == session.tx_bytes
        assert session.pending_frames == 0

    def test_failed_flush_charges_nothing_and_keeps_drop_count(self):
        async def scenario():
            meter = ComponentUsageMeter("test")
            session = _session(_FakeTransport(fail_write=True), meter)
            for i in range(3):
                session.feed({"kind": "rule_ack", "epoch": 1,
                              "stage_id": f"s{i}"})
            with pytest.raises(SessionClosed):
                await session.flush()
            return session, meter

        session, meter = asyncio.run(scenario())
        # The bytes never made it: no phantom traffic in the NIC rows.
        assert session.tx_bytes == 0
        assert meter.tx_bytes == 0
        # The drop count survives — three frames died with the session.
        assert session.pending_frames == 3
        assert not session.connected

    def test_feed_after_failed_flush_raises(self):
        async def scenario():
            session = _session(_FakeTransport(fail_write=True))
            session.feed({"kind": "collect_req", "epoch": 1})
            with pytest.raises(SessionClosed):
                await session.flush()
            with pytest.raises(SessionClosed):
                session.feed({"kind": "collect_req", "epoch": 2})

        asyncio.run(scenario())

    def test_flush_waits_only_while_writing_is_paused(self):
        async def scenario():
            session = _session()
            session.pause_writing()
            session.feed({"kind": "collect_req", "epoch": 1})
            flush = asyncio.ensure_future(session.flush())
            await asyncio.sleep(0.01)
            assert not flush.done()
            session.resume_writing()
            await flush
            session.pause_writing()
            session.feed({"kind": "collect_req", "epoch": 2})
            flush = asyncio.ensure_future(session.flush())
            await asyncio.sleep(0.01)
            session.connection_lost(None)
            with pytest.raises(SessionClosed):
                await flush
            return session

        session = asyncio.run(scenario())
        assert session.tx_bytes == len(encode({"kind": "collect_req", "epoch": 1}))


class TestHandover:
    def test_attach_parses_bytes_buffered_during_registration(self):
        """A peer that writes past its hello before the hand-over must not
        lose those bytes: the framer parses what the stream buffered."""

        async def scenario():
            attached = asyncio.get_running_loop().create_future()

            async def on_connect(reader, writer):
                hello = await read_message(reader)
                await asyncio.sleep(0.05)  # let the extra frame land
                session = Session(hello["stage_id"])
                session.oob_kinds = frozenset({"partition_update"})
                session.attach(reader, writer)
                session.transport.write(encode({"kind": "registered"}))
                attached.set_result(session)

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                encode({"kind": "register", "stage_id": "s-1"})
                + encode({"kind": "partition_update", "added": []})
            )
            session = await attached
            assert (await read_message(reader))["kind"] == "registered"
            await session.send({"kind": "collect_req", "epoch": 4})
            reply = asyncio.ensure_future(session.expect("metrics_reply", 4))
            request = await read_message(reader)
            writer.write(_reply(epoch=request["epoch"]))
            message = await reply
            writer.close()
            await asyncio.sleep(0.05)
            connected = session.connected
            server.close()
            await server.wait_closed()
            return session, message, connected

        session, message, connected = asyncio.run(scenario())
        assert session.oob == [{"kind": "partition_update", "added": []}]
        assert message["epoch"] == 4 and message["data_iops"] == 10.0
        assert not connected  # the peer's close reached the framer as EOF
