"""Wire protocol for the live control plane: length-prefixed JSON.

Frames are ``[4-byte big-endian length][body]``. Bodies are dicts with a
mandatory ``kind`` field; the kinds mirror the simulated protocol exactly
(``collect_req``, ``metrics_reply``, ``rule``, ``rule_ack``, plus
``register``/``registered`` for session setup).

JSON keeps the protocol inspectable; the framing keeps reads exact. A
16 MiB frame cap (``MAX_FRAME``) guards against corrupt length headers —
orders of magnitude above any control message, far below the 4 GiB the
4-byte length field could express.

Hot-path frames may instead ride the binary fast-codec
(:mod:`repro.live.codec`): the first body byte discriminates (``0xB1``
binary vs ``{`` JSON), so :func:`decode_body` accepts both regardless of
what a session negotiated. Senders pick a codec per session at
registration (the ``codecs`` hello field / ``codec`` ack field, see
:func:`choose_codec`); kinds without a packed schema always fall back to
JSON even on a binary session. Codec ``binary2`` is revision 2 of the
packed schema — ``rule`` frames carry ``metadata_iops_limit`` — and is
only granted when both sides advertise it, so a mixed-version fleet
degrades per session to plain ``binary`` or JSON (where a missing
metadata limit means unlimited).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.live.codec import (
    BINARY_MAGIC,
    Buffer,
    decode_binary,
    encode_binary,
    encode_binary_into,
)

__all__ = [
    "CODEC_PREFERENCE",
    "ProtocolError",
    "choose_codec",
    "decode_body",
    "encode",
    "encode_into",
    "read_frame",
    "read_message",
    "write_message",
]

_HEADER = struct.Struct(">I")
#: Sanity cap on frame size (16 MiB is orders beyond any control message).
MAX_FRAME = 16 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame or unexpected message."""


#: Codec preference order at negotiation (JSON is the implicit fallback).
CODEC_PREFERENCE = ("binary2", "binary")


def choose_codec(
    offered: Optional[Iterable[str]],
    supported: Optional[Iterable[str]] = None,
) -> str:
    """Pick the session codec from a peer's advertised ``codecs`` list.

    The newest binary revision both sides speak wins (``binary2`` over
    ``binary``); a peer that advertises nothing (an older client) gets
    JSON — the negotiation fallback that keeps mixed-version sessions
    working. ``supported`` restricts the grant to what the *local* side
    speaks (default: every binary revision).
    """
    if offered is None:
        return "json"
    offered_set = set(offered)
    supported_set = (
        set(CODEC_PREFERENCE) if supported is None else set(supported)
    )
    for codec in CODEC_PREFERENCE:
        if codec in offered_set and codec in supported_set:
            return codec
    return "json"


def encode(message: Dict[str, Any], codec: str = "json") -> bytes:
    """Encode a message dict into one wire frame.

    ``codec="binary"`` packs hot kinds via :mod:`repro.live.codec` and
    falls back to JSON for everything else; ``codec="binary2"`` packs the
    revision-2 schema (``rule`` frames carry the metadata limit).
    """
    buf = bytearray()
    encode_into(buf, message, codec)
    return bytes(buf)


def encode_into(
    buf: bytearray, message: Dict[str, Any], codec: str = "json"
) -> int:
    """Append one wire frame (header + body) to ``buf``; returns its size.

    The zero-copy send path: a sender appends every frame of a phase
    into one shared buffer (the session outbox) and writes it once —
    no per-frame ``bytes`` objects, no join. The 4-byte length header
    is reserved up front and back-filled once the body size is known.
    """
    if "kind" not in message:
        raise ProtocolError("message missing 'kind'")
    start = len(buf)
    buf += b"\x00\x00\x00\x00"  # header placeholder, back-filled below
    packed: Optional[int] = None
    if codec == "binary2":
        packed = encode_binary_into(message, buf, rev=2)
    elif codec == "binary":
        packed = encode_binary_into(message, buf)
    if packed is None:
        buf += json.dumps(message, separators=(",", ":")).encode("utf-8")
    length = len(buf) - start - _HEADER.size
    if length > MAX_FRAME:
        del buf[start:]
        raise ProtocolError(f"frame too large: {length}")
    _HEADER.pack_into(buf, start, length)
    return _HEADER.size + length


def decode_body(body: Buffer) -> Dict[str, Any]:
    """Decode one frame body (any bytes-like, e.g. a receive-buffer view)."""
    if body and body[0] == BINARY_MAGIC:
        try:
            # memoryview: string fields decode straight from the frame
            # buffer, with no intermediate slice copies.
            return decode_binary(memoryview(body))
        except ValueError as exc:
            raise ProtocolError(f"undecodable binary frame: {exc}") from exc
    try:
        message = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError(f"frame is not a message: {message!r}")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, Any], int]:
    """Read one framed message plus its on-wire size in bytes.

    The size includes the 4-byte length header — what NIC accounting
    (:mod:`repro.obs.procfs`) charges per frame. Raises
    ``IncompleteReadError`` on EOF.
    """
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    body = await reader.readexactly(length)
    return decode_body(body), _HEADER.size + length


async def read_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one framed message (raises ``IncompleteReadError`` on EOF)."""
    message, _ = await read_frame(reader)
    return message


async def write_message(
    writer: asyncio.StreamWriter, message: Dict[str, Any], codec: str = "json"
) -> int:
    """Write one framed message and drain; returns the frame's size."""
    frame = encode(message, codec)
    writer.write(frame)
    await writer.drain()
    return len(frame)
