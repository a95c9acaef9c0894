"""Server-side session plumbing shared by the live controllers.

A :class:`Session` is the ``asyncio.BufferedProtocol`` of one peer. After
the stream handshake (read ``register``, write ``registered``),
:meth:`Session.attach` hands it the transport; from then on a reply costs
no task, no queue hop and no future:

* **Receive.** All sessions of a thread read into one shared buffer: the
  transport calls ``get_buffer``, ``recv_into`` and ``buffer_updated``
  back to back, so the buffer is free again when the callback returns.
  Frames are parsed in place; only a partial tail frame is copied into
  the session's small *carry*. A length over ``MAX_FRAME``, an
  undecodable body or EOF makes the session dead.
* **Dispatch.** A frame whose kind and epoch match the phase the session
  is armed in goes to that :class:`PhaseBarrier` and disarms the
  session; an ``oob_kinds`` frame goes to :attr:`Session.oob`; anything
  else (a late reply, a duplicate) counts in ``stale_messages``, so no
  reply counts twice toward a barrier.
* **Phase wait.** :func:`gather_phase` waits on one future and one
  deadline timer per phase, and reports the members without a reply
  (dead or late) as missing — the live partial collect/enforce of paper
  §VI, counterpart of the simulated ``collect_timeout_s``.
* **Send.** :meth:`Session.feed` buffers frames in the bounded outbox;
  :meth:`Session.flush` is one ``transport.write`` that awaits only
  while the transport has paused writing (a slow reader).
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.guard.shed import BoundedOutbox
from repro.live.protocol import MAX_FRAME, ProtocolError, decode_body, encode_into

__all__ = [
    "PhaseBarrier", "Session", "SessionClosed", "fan_out", "flush_all", "gather_phase",
]

_HEADER = struct.Struct(">I")

#: Size of the receive buffer shared by every session of one thread.
RX_BUFFER_BYTES = 256 * 1024
#: ``.view`` is this thread's receive buffer (one per event-loop thread).
_shared = threading.local()


class SessionClosed(ConnectionError):
    """The peer's socket reached EOF or errored; the session is dead."""


class Session(asyncio.BufferedProtocol):
    """One connected peer: its framer, outbox and phase membership.

    ``meter`` is an optional :class:`repro.obs.procfs.ComponentUsageMeter`;
    when set, every byte written to or read from this peer is charged to
    the owning controller's NIC columns.

    ``oob_kinds`` names frame kinds that are *out-of-band*, not replies to
    any phase request (e.g. a ``partition_update`` announcing an adopted
    stage). They go to :attr:`oob`, never counted stale; the owner reads
    and clears :attr:`oob` at a convenient boundary (e.g. cycle start).

    ``max_outbox_bytes`` bounds the outbox: frames fed as *sheddable*
    (rule/rule_batch — superseded by the next epoch) are dropped
    oldest-first once the buffer exceeds the bound, so a peer that stops
    reading cannot grow controller memory without limit. Non-sheddable
    frames (collect requests, acks) are never dropped. A shed rule
    surfaces as that stage's missing ack, which resolves only through an
    enforce deadline, so enable bounded outboxes with phase deadlines.
    """

    def __init__(
        self, peer_id: str, meter=None, max_outbox_bytes: Optional[int] = None
    ) -> None:
        self.peer_id = peer_id
        self.meter = meter
        self.transport: Optional[asyncio.Transport] = None
        self.connected = True
        #: Wire codec for frames sent to this peer ("json" | "binary"),
        #: fixed at registration (see ``protocol.choose_codec``). Reads
        #: always auto-detect, so this only governs what *we* emit.
        self.codec = "json"
        #: Frames buffered by :meth:`feed` since the last :meth:`flush`.
        self.pending_frames = 0
        #: Bounded (or not) send buffer; owns the shed counters.
        self.outbox = BoundedOutbox(max_outbox_bytes)
        #: Frame kinds routed to :attr:`oob` instead of a phase.
        self.oob_kinds: frozenset = frozenset()
        #: Out-of-band frames, in arrival order (owner drains).
        self.oob: List[dict] = []
        #: Frames dropped because no phase was waiting for them: replies
        #: for a finished epoch, duplicates, unexpected kinds.
        self.stale_messages = 0
        #: On-wire bytes exchanged with this peer (frames incl. headers).
        self.tx_bytes = 0
        self.rx_bytes = 0
        if not hasattr(_shared, "view"):
            _shared.view = memoryview(bytearray(RX_BUFFER_BYTES))
        self._rx = _shared.view
        #: Partial tail frame carried over to the next read.
        self._carry = b""
        #: The phase this session owes a reply to, if any.
        self._barrier: Optional[PhaseBarrier] = None
        #: Set while the transport has paused writing.
        self._resumed: Optional[asyncio.Future] = None
        self._stream = None

    def attach(self, reader, writer) -> None:
        """Take over a stream connection once registration is done.

        The transport switches to this framer. Bytes the stream reader
        already buffered past the hello are parsed first, and an EOF it
        already saw kills the session. The writer is kept only because
        ``StreamWriter.__del__`` would close the transport.
        """
        self._stream = writer
        transport = writer.transport
        transport.set_protocol(self)
        transport.resume_reading()  # in case the stream reader paused it
        self.connection_made(transport)
        # StreamReader has no public non-blocking drain of its buffer.
        buffered = bytes(reader._buffer)
        reader._buffer.clear()
        if buffered:
            self._receive(memoryview(buffered))
        if reader.at_eof() or transport.is_closing():
            self._lost()

    # -- asyncio.BufferedProtocol ---------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._rx

    def buffer_updated(self, nbytes: int) -> None:
        self._receive(self._rx[:nbytes])

    def connection_lost(self, exc) -> None:
        self._lost()

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        waiter, self._resumed = self._resumed, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- receive path -------------------------------------------------------
    def _receive(self, chunk: memoryview) -> None:
        self.rx_bytes += len(chunk)
        if self.meter is not None:
            self.meter.add_rx(len(chunk))
        carried = bool(self._carry)
        if carried:
            self._carry += chunk
            chunk = memoryview(self._carry)
        with chunk:
            try:
                used = self._frames(chunk)
            except ProtocolError:
                self._carry = b""
                self._lost()
                self.transport.abort()
                return
            if used == len(chunk):
                self._carry = b""
            elif used or not carried:  # else the carry already holds it all
                self._carry = bytearray(chunk[used:])

    def _frames(self, data: memoryview) -> int:
        """Dispatch every complete frame in ``data``; returns bytes used."""
        pos, end = 0, len(data)
        while end - pos >= _HEADER.size:
            (length,) = _HEADER.unpack_from(data, pos)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
            stop = pos + _HEADER.size + length
            if stop > end:
                break
            self._dispatch(decode_body(data[pos + _HEADER.size : stop]))
            pos = stop
        return pos

    def _dispatch(self, message: dict) -> None:
        kind = message.get("kind")
        if kind in self.oob_kinds:
            self.oob.append(message)
            return
        barrier = self._barrier
        if (
            barrier is not None
            and kind == barrier.kind
            and message.get("epoch") == barrier.epoch
        ):
            self._barrier = None
            barrier._arrive(self, message)
        else:
            self.stale_messages += 1

    def _lost(self) -> None:
        """The session is dead: wake a paused writer, leave the phase."""
        self.connected = False
        self.resume_writing()
        barrier, self._barrier = self._barrier, None
        if barrier is not None:
            barrier._count_down()

    # -- send path ----------------------------------------------------------
    def feed(self, message: dict, sheddable: bool = False) -> int:
        """Encode one frame into the outbox without writing; returns its size.

        A phase feeds every frame for this peer, then awaits one
        :meth:`flush`, a *single* ``transport.write`` (asyncio issues an
        eager ``send`` syscall per write). The frame is encoded in place
        (``encode_into``), never as its own ``bytes``. Raises
        :class:`SessionClosed` on a dead socket. ``sheddable`` marks the
        frame droppable under outbox pressure (rule frames only).
        """
        if not self.connected:
            raise SessionClosed(f"{self.peer_id}: session closed")
        size = self.outbox.push_with(
            lambda buf: encode_into(buf, message, self.codec), sheddable
        )
        self.pending_frames = self.outbox.pending_frames
        return size

    def feed_frame(self, frame: bytes, sheddable: bool = False) -> int:
        """Buffer an already-encoded frame (e.g. from a rule cache).

        tx accounting (:attr:`tx_bytes`, the NIC meter) is deferred to
        :meth:`flush` success — bytes that never reach the socket must
        not show up in REMORA traffic rows.
        """
        if not self.connected:
            raise SessionClosed(f"{self.peer_id}: session closed")
        self.outbox.push(frame, sheddable=sheddable)
        self.pending_frames = self.outbox.pending_frames
        return len(frame)

    async def flush(self) -> None:
        """Write the frames buffered by :meth:`feed` in one burst.

        Awaits only while the transport has paused writing. On success
        the bytes are charged to :attr:`tx_bytes` and the NIC meter and
        :attr:`pending_frames` resets. On failure the session is dead and
        :class:`SessionClosed` is raised: nothing is charged, and
        :attr:`pending_frames` keeps the count of frames dropped with it.
        """
        burst = self.outbox.drain()
        if burst and self.connected:
            self.transport.write(burst)
        if self._resumed is not None:
            await self._resumed
        if not self.connected or self.transport.is_closing():
            self._lost()
            raise SessionClosed(f"{self.peer_id}: connection lost")
        self.pending_frames = 0
        if burst:
            self.tx_bytes += len(burst)
            if self.meter is not None:
                self.meter.add_tx(len(burst))

    async def send(self, message: dict) -> None:
        """Write one frame; raises :class:`SessionClosed` on a dead socket."""
        self.feed(message)
        await self.flush()

    async def expect(self, kind: str, epoch: int) -> dict:
        """Wait, without a deadline, for this session's ``kind`` reply.

        The one-member :func:`gather_phase`, for a single RPC off the
        cycle path: call it right after writing the request (a reply
        parsed earlier is stale). Raises :class:`SessionClosed` when the
        socket dies first.
        """
        replies: List[dict] = []
        barrier = PhaseBarrier(kind, epoch, lambda s, m: replies.append(m))
        barrier.add(self)
        await gather_phase(barrier, None)
        if not replies:
            raise SessionClosed(f"{self.peer_id}: connection lost")
        return replies[0]

    def close(self) -> None:
        """Close the socket after pending writes; the session is dead."""
        self._lost()
        if self.transport is not None:
            self.transport.close()


class PhaseBarrier:
    """One phase's reply barrier: a count of members still owing a reply.

    ``kind``/``epoch`` select the reply frame. ``on_reply(session,
    message)`` runs synchronously as each member's reply is parsed; an
    exception it raises is re-raised by :func:`gather_phase` (a real
    handler error, not a missing reply).
    """

    def __init__(
        self, kind: str, epoch: int, on_reply: Optional[Callable] = None
    ) -> None:
        self.kind = kind
        self.epoch = epoch
        self.on_reply = on_reply
        #: Members without a reply yet, in arming order (an ordered set).
        self.waiting: Dict[Session, None] = {}
        #: Members that can still reply: armed, connected, unanswered.
        self.pending = 0
        self.timed_out = False
        self.error: Optional[BaseException] = None
        self._done: Optional[asyncio.Future] = None

    def add(self, session: Session) -> None:
        """Arm ``session`` before its request is written (dead: missing)."""
        if session in self.waiting:
            return
        self.waiting[session] = None
        if session.connected:
            session._barrier = self
            self.pending += 1

    def _arrive(self, session: Session, message: dict) -> None:
        del self.waiting[session]
        if self.on_reply is not None:
            try:
                self.on_reply(session, message)
            except Exception as exc:
                self.error = self.error or exc
                self._wake()
                return
        self._count_down()

    def _count_down(self) -> None:
        self.pending -= 1
        if not self.pending:
            self._wake()

    def _wake(self, deadline: bool = False) -> None:
        if self._done is not None and not self._done.done():
            self.timed_out = deadline
            self._done.set_result(None)

    def _close(self) -> None:
        """Disarm every member still waiting: late replies are stale."""
        for session in self.waiting:
            if session._barrier is self:
                session._barrier = None


async def gather_phase(
    barrier: PhaseBarrier, timeout_s: Optional[float]
) -> Tuple[List[Session], bool]:
    """Wait until every member of ``barrier`` replied or died, or the deadline.

    Returns ``(missing, timed_out)``: the members that produced no reply
    — their socket died or the deadline fired before they answered — in
    arming order, and whether the deadline fired. With ``timeout_s=None``
    a dead socket still counts its member down, so a killed peer cannot
    hang the phase; only a silent-but-connected peer blocks, as in the
    seed. An exception raised by the barrier's ``on_reply`` propagates.
    """
    try:
        if barrier.pending and barrier.error is None:
            loop = asyncio.get_running_loop()
            barrier._done = loop.create_future()
            if timeout_s is not None:
                timer = loop.call_later(timeout_s, barrier._wake, True)
            try:
                await barrier._done
            finally:
                if timeout_s is not None:
                    timer.cancel()
        if barrier.error is not None:
            raise barrier.error
    finally:
        barrier._close()
    return list(barrier.waiting), barrier.timed_out


async def fan_out(barrier: PhaseBarrier, sessions, message: dict) -> None:
    """Arm ``barrier`` for every session, then send ``message`` to each."""
    for session in sessions:
        barrier.add(session)
        if session.connected:
            session.feed(message)
    await flush_all(sessions)


async def flush_all(sessions) -> None:
    """Flush each live session; one that dies stays in its phase as missing."""
    for session in sessions:
        if session.connected:
            with contextlib.suppress(SessionClosed):
                await session.flush()
