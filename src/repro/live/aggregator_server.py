"""Live aggregator controller: the hierarchical design over real TCP.

A :class:`LiveAggregator` is simultaneously a server (stages connect to it
and register, exactly as they would to a flat controller) and a client (it
registers upstream with the global controller once its partition is
complete). Per control cycle it

1. receives ``agg_collect_req`` from the global controller,
2. fans ``collect_req`` out to its stages and gathers replies,
3. replies upstream with one compact ``agg_metrics_reply`` carrying the
   whole partition's demand vectors,
4. receives a ``rule_batch``, forwards per-stage ``rule`` messages,
   gathers acks, and acknowledges the batch.

This is the same state machine as the simulated
:class:`~repro.core.controller.AggregatorController`, over sockets.

Failure semantics mirror the live global controller: a stage whose
socket dies is evicted (and may re-register); with ``collect_timeout_s``
set, slow stages are left behind at their last-known demand and the
upstream reply reports how many were missing (``n_missing``), so the
global controller's degraded-cycle accounting spans the whole hierarchy.

Re-homing support (paper §VI dependability): the aggregator advertises
its listen address in the upstream hello; the global controller answers
every membership change with a ``topology`` frame listing all live
aggregators, which this aggregator fans out to its stages as ``rehome``
frames (peer addresses rotated per stage, so a dead aggregator's
partition spreads across the survivors instead of dog-piling one). A
stage that registers *after* the upstream link is up is an adoption —
an orphan fleeing a dead peer — and is announced upstream with a
``partition_update`` so the global controller re-homes its bookkeeping.
With ``expected_stages=0`` the aggregator starts as a hot spare: it
registers upstream immediately with an empty partition and exists only
to adopt orphans. On upstream loss without an explicit ``shutdown``
frame the aggregator *releases* its stages (closes their sockets without
telling them to stop) so they re-home through their reconnect loops.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, List, Optional, Tuple

from repro.live.protocol import (
    ProtocolError,
    choose_codec,
    encode,
    read_frame,
    read_message,
    write_message,
)
from repro.live.sessions import (
    PhaseBarrier, Session, SessionClosed, fan_out, flush_all, gather_phase,
)
from repro.obs.spans import NullSpanTracer

__all__ = ["LiveAggregator"]


class _StageSession(Session):
    def __init__(self, stage_id: str, job_id: str, meter=None) -> None:
        super().__init__(stage_id, meter=meter)
        self.job_id = job_id
        # Per-axis last-known demand: the upstream fallback for a dead
        # socket must keep the data/metadata split, not a summed scalar.
        self.latest_data_demand = 0.0
        self.latest_metadata_demand = 0.0

    @property
    def latest_demand(self) -> float:
        """Summed last-known demand (back-compat upstream vector)."""
        return self.latest_data_demand + self.latest_metadata_demand

    @property
    def stage_id(self) -> str:
        return self.peer_id


class LiveAggregator:
    """One aggregator: serves a stage partition, reports upstream."""

    def __init__(
        self,
        aggregator_id: str,
        global_host: str,
        global_port: int,
        expected_stages: int,
        host: str = "127.0.0.1",
        port: int = 0,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        codecs: Tuple[str, ...] = ("binary2", "binary", "json"),
        span_tracer=None,
        usage_meter=None,
        metrics=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if expected_stages < 0:
            raise ValueError(f"expected_stages must be >= 0: {expected_stages}")
        for name, value in (
            ("collect_timeout_s", collect_timeout_s),
            ("enforce_timeout_s", enforce_timeout_s),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        self.aggregator_id = aggregator_id
        self.global_host = global_host
        self.global_port = global_port
        self.expected_stages = expected_stages
        self.host = host
        self.port = port
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = (
            enforce_timeout_s if enforce_timeout_s is not None else collect_timeout_s
        )
        #: Per-stage-session outbound bound (bytes); None = unbounded.
        #: Same contract as the controllers: enable with phase deadlines.
        self.session_outbox_bytes = session_outbox_bytes
        #: Codecs advertised upstream (and granted to stages that offer
        #: them); ``("json",)`` emulates a pre-binary aggregator.
        self.offered_codecs = tuple(codecs)
        #: Codec negotiated with the global controller for this session.
        self.up_codec = "json"
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.meter = usage_meter
        self.metrics = metrics
        # Resolved once; registry lookups are too slow per cycle.
        if metrics is not None:
            self._m_cycles = metrics.counter(
                "repro_cycles_total", "control cycles completed", role="aggregator"
            )
            self._m_evictions = metrics.counter(
                "repro_evictions_total",
                "sessions dropped after their socket died",
                role="aggregator",
            )
        self.sessions: Dict[str, _StageSession] = {}
        self.cycles_served = 0
        self.evictions = 0
        self._outbox_shed_evicted = 0
        self.registrations_rejected = 0
        #: Live peer aggregators ``(host, port)`` from the last topology
        #: frame, excluding this aggregator — the stages' rehome targets.
        self.peer_addresses: List[Tuple[str, int]] = []
        #: ``rehome`` frames pushed to stages.
        self.rehomes_sent = 0
        #: Stages adopted after upstream registration (orphans re-homed
        #: here), announced upstream via ``partition_update``.
        self.adoptions = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._all_registered = asyncio.Event()
        if expected_stages == 0:  # hot spare: nothing to wait for
            self._all_registered.set()
        self._stop = asyncio.Event()
        self._paused = asyncio.Event()
        self._paused.set()
        self._up_writer: Optional[asyncio.StreamWriter] = None
        self._killed = False

    def _cpu(self):
        """CPU-attribution context for synchronous critical sections."""
        return self.meter.cpu() if self.meter is not None else contextlib.nullcontext()

    async def _send_up(self, up_writer, message: dict) -> None:
        """Write an upstream frame, charging its bytes to this aggregator."""
        nbytes = await write_message(up_writer, message, self.up_codec)
        if self.meter is not None:
            self.meter.add_tx(nbytes)

    # -- fault-injection hooks (see repro.live.faults) -----------------------
    def kill(self) -> None:
        """Die abruptly: abort every socket, stop listening (process kill).

        The global controller sees EOF and orphans this partition; the
        stages see EOF (then connection-refused on retry) and rotate to
        the alternate aggregators they learnt from ``rehome`` frames.
        """
        self._killed = True
        up = self._up_writer
        if up is not None and up.transport is not None:
            up.transport.abort()
        for session in list(self.sessions.values()):
            if session.transport is not None:
                session.transport.abort()
        if self._server is not None:
            self._server.close()

    def pause(self) -> None:
        """Stall: stop handling upstream frames; sockets stay open."""
        self._paused.clear()

    def resume(self) -> None:
        """Resume after :meth:`pause`; the backlog is then served."""
        self._paused.set()

    # -- re-homing ------------------------------------------------------------
    def _alternates_for(self, index: int) -> List[List[object]]:
        """Peer addresses rotated by ``index`` (spread re-homed stages)."""
        peers = self.peer_addresses
        if not peers:
            return []
        k = index % len(peers)
        return [[h, p] for h, p in peers[k:] + peers[:k]]

    async def _apply_topology(self, aggregators: List[dict]) -> None:
        """Adopt a topology frame: remember peers, re-arm every stage."""
        self.peer_addresses = [
            (a["host"], int(a["port"]))
            for a in aggregators
            if a.get("aggregator_id") != self.aggregator_id
        ]
        for i, stage_id in enumerate(sorted(self.sessions)):
            session = self.sessions[stage_id]
            try:
                await session.send(
                    {"kind": "rehome", "alternates": self._alternates_for(i)}
                )
                self.rehomes_sent += 1
            except SessionClosed:
                self._evict(session)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Listen for stage registrations; ``self.port`` gets the bound port."""
        self._server = await asyncio.start_server(
            self._on_stage_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_stage_connection(self, reader, writer) -> None:
        try:
            hello = await read_message(reader)
        except (asyncio.IncompleteReadError, ProtocolError, ConnectionError, OSError):
            writer.close()
            return
        if hello.get("kind") != "register":
            writer.close()
            return
        stage_id = hello.get("stage_id")
        job_id = hello.get("job_id")
        error = None
        if not stage_id or not job_id:
            error = "register requires stage_id and job_id"
        elif stage_id in self.sessions:
            error = f"stage_id already registered: {stage_id}"
        if error is not None:
            self.registrations_rejected += 1
            try:
                await write_message(
                    writer, {"kind": "register_error", "reason": error}
                )
            except (ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        session = _StageSession(stage_id, job_id, meter=self.meter)
        session.outbox.max_bytes = self.session_outbox_bytes
        # Grant the newest codec both sides speak (mixed-version safe):
        # the stage's offer intersected with what *we* were built with.
        session.codec = choose_codec(
            hello.get("codecs"), supported=self.offered_codecs
        )
        session.attach(reader, writer)
        self.sessions[session.stage_id] = session
        # Late joiners get the current alternate list with the ack, so a
        # re-homed orphan is immediately armed against *this* home dying.
        ack: dict = {"kind": "registered", "codec": session.codec}
        if self.peer_addresses:
            ack["alternates"] = self._alternates_for(len(self.sessions) - 1)
        session.transport.write(encode(ack))
        if len(self.sessions) >= self.expected_stages:
            self._all_registered.set()
        # A registration after the upstream link is up is an adoption
        # (an orphan re-homing here, or one of our own stages returning);
        # the global controller dedups re-registrations of owned stages.
        if self._up_writer is not None:
            self.adoptions += 1
            try:
                await self._send_up(
                    self._up_writer,
                    {
                        "kind": "partition_update",
                        "aggregator_id": self.aggregator_id,
                        "added": [{"stage_id": stage_id, "job_id": job_id}],
                    },
                )
            except (ConnectionError, OSError):
                pass  # upstream is dying; the next topology pass catches up

    def _evict(self, session: _StageSession) -> None:
        if self.sessions.get(session.stage_id) is session:
            del self.sessions[session.stage_id]
            self.evictions += 1
            self._outbox_shed_evicted += session.outbox.frames_shed
            if self.metrics is not None:
                self._m_evictions.inc()
        session.close()

    @property
    def outbox_frames_shed(self) -> int:
        """Frames shed across stage sessions, living and evicted."""
        return self._outbox_shed_evicted + sum(
            s.outbox.frames_shed for s in self.sessions.values()
        )

    async def run(self, stage_timeout_s: float = 30.0) -> None:
        """Register upstream once the partition is complete, then serve."""
        await asyncio.wait_for(self._all_registered.wait(), timeout=stage_timeout_s)
        reader, writer = await asyncio.open_connection(
            self.global_host, self.global_port
        )
        self._up_writer = writer
        try:
            await self._send_up(
                writer,
                {
                    "kind": "register_aggregator",
                    "aggregator_id": self.aggregator_id,
                    "stage_ids": sorted(self.sessions),
                    "job_ids": [
                        self.sessions[s].job_id for s in sorted(self.sessions)
                    ],
                    "host": self.host,
                    "port": self.port,
                    "codecs": list(self.offered_codecs),
                },
            )
            ack = await read_message(reader)
            if ack["kind"] != "registered":
                raise RuntimeError(f"unexpected registration reply: {ack}")
            granted = ack.get("codec", "json")
            self.up_codec = (
                granted if granted in self.offered_codecs else "json"
            )
            while not self._stop.is_set():
                try:
                    message, nbytes = await read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ProtocolError,
                    ConnectionError,
                    OSError,
                ):
                    break
                if self.meter is not None:
                    self.meter.add_rx(nbytes)
                await self._paused.wait()
                await self._handle(message, writer)
        finally:
            self._up_writer = None
            if self._stop.is_set():
                # Deliberate shutdown: take the stages down with us.
                await self._shutdown_stages()
            else:
                # Upstream lost (global death, our kill): *release* the
                # stages — close their sockets without a shutdown frame so
                # their reconnect loops re-home them to live aggregators.
                self._release_stages()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
            if self._server is not None:
                self._server.close()
                # Wait for the listen socket to actually release: without
                # this, a back-to-back restart on the same port races the
                # in-flight close and flakes with EADDRINUSE on slow CI.
                with contextlib.suppress(ConnectionError, OSError):
                    await self._server.wait_closed()

    async def _handle(self, message, up_writer) -> None:
        kind = message["kind"]
        if kind == "agg_collect_req":
            await self._collect(message["epoch"], up_writer)
        elif kind == "rule_batch":
            await self._distribute(message, up_writer)
        elif kind == "topology":
            await self._apply_topology(message.get("aggregators", []))
        elif kind == "shutdown":
            self._stop.set()

    # -- cycle halves ---------------------------------------------------------
    async def _collect(self, epoch: int, up_writer) -> None:
        self.cycles_served += 1
        started = self.tracer.now()
        if self.metrics is not None:
            self._m_cycles.inc()
        sessions = [self.sessions[s] for s in sorted(self.sessions)]

        def on_reply(s: _StageSession, m: dict) -> None:
            s.latest_data_demand = float(m["data_iops"])
            s.latest_metadata_demand = float(m["metadata_iops"])

        barrier = PhaseBarrier("metrics_reply", epoch, on_reply)
        with self._cpu():
            await fan_out(barrier, sessions, {"kind": "collect_req", "epoch": epoch})
        missing, _ = await gather_phase(barrier, self.collect_timeout_s)
        for s in missing:
            if not s.connected:
                self._evict(s)
        # Report the full partition upstream — absent stages ride at their
        # last-known demand and are flagged so the global controller's
        # degraded-cycle accounting sees through the aggregation.
        with self._cpu():
            await self._send_up(
                up_writer,
                {
                    "kind": "agg_metrics_reply",
                    "epoch": epoch,
                    "aggregator_id": self.aggregator_id,
                    "stage_ids": [s.stage_id for s in sessions],
                    "job_ids": [s.job_id for s in sessions],
                    # ``demands`` stays the summed vector for pre-rev-2
                    # global controllers; new ones read the per-axis pair.
                    "demands": [s.latest_demand for s in sessions],
                    "data_demands": [s.latest_data_demand for s in sessions],
                    "metadata_demands": [
                        s.latest_metadata_demand for s in sessions
                    ],
                    "n_missing": len(missing),
                },
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "collect", started, self.tracer.now() - started,
                parent="cycle", epoch=epoch, n_missing=len(missing),
            )

    async def _distribute(self, message, up_writer) -> None:
        epoch = message["epoch"]
        rules = message["rules"]
        started = self.tracer.now()
        barrier = PhaseBarrier("rule_ack", epoch)
        targets: List[_StageSession] = []
        with self._cpu():
            for rule in rules:
                session = self.sessions.get(rule["stage_id"])
                if session is None:
                    continue
                forwarded = {
                    "kind": "rule",
                    "epoch": epoch,
                    "stage_id": rule["stage_id"],
                    "data_iops_limit": rule["data_iops_limit"],
                }
                if "metadata_iops_limit" in rule:
                    forwarded["metadata_iops_limit"] = rule[
                        "metadata_iops_limit"
                    ]
                barrier.add(session)
                if session.connected:
                    # Sheddable under outbox pressure: superseded by the
                    # next epoch's rule; the missing ack resolves through
                    # the enforce deadline.
                    session.feed(forwarded, sheddable=True)
                    targets.append(session)
            await flush_all(targets)
        missing, _ = await gather_phase(barrier, self.enforce_timeout_s)
        for s in missing:
            if not s.connected:
                self._evict(s)
        with self._cpu():
            await self._send_up(
                up_writer,
                {
                    "kind": "batch_ack",
                    "epoch": epoch,
                    "aggregator_id": self.aggregator_id,
                },
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "enforce", started, self.tracer.now() - started,
                parent="cycle", epoch=epoch, n_rules=len(rules),
            )

    async def _shutdown_stages(self) -> None:
        for session in list(self.sessions.values()):
            try:
                await session.send({"kind": "shutdown"})
            except SessionClosed:
                pass
            session.close()
        self.sessions.clear()

    def _release_stages(self) -> None:
        """Drop stage sessions *without* telling the stages to stop."""
        for session in list(self.sessions.values()):
            session.close()
        self.sessions.clear()
