"""The row codec: fixed-width wire format of occurrence rows.

Property tests pin the contract the row-frame deltas rest on: every row
that :class:`SnapshotRowCodec` encodes inline decodes to the *exact*
``EventOccurrence.snapshot()`` tuple, so workers rebuild byte-identical
mirrors.  Rows the codec cannot inline (payloads, exotic OIDs, out-of-range
integers) must be classified as fallbacks deterministically — a placeholder
row that decodes to ``None`` — and corrupted or diverged rows must raise
:class:`SnapshotError`, never rebuild a wrong mirror.  A row-log test pins
the synchronous unpicklable-payload failure of the fallback path.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.errors import SnapshotError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import ROW_WIDTH, SnapshotRowCodec

UNIVERSE = (
    EventType(Operation.CREATE, "alpha"),
    EventType(Operation.DELETE, "alpha"),
    EventType(Operation.MODIFY, "alpha", "size"),
    EventType(Operation.MODIFY, "beta"),
    EventType(Operation.RAISE, "tick"),
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def random_occurrence(rng: random.Random, eid: int) -> EventOccurrence:
    """A random occurrence mixing inline-encodable and fallback rows."""
    roll = rng.random()
    oid: object
    if roll < 0.35:
        oid = rng.randint(-(1 << 40), 1 << 40)
    elif roll < 0.70:
        oid = f"{rng.choice(('alpha', 'beta'))}#{rng.randint(1, 999)}"
    elif roll < 0.78:
        oid = "oid-" + "x" * rng.randint(23, 40)  # straddles the 26-byte cap
    elif roll < 0.86:
        oid = rng.choice([INT64_MIN - 1, INT64_MAX + 1])  # out of int64
    elif roll < 0.93:
        oid = rng.choice([True, False])  # bool is not an int64 row
    else:
        oid = ("composite", rng.randint(0, 9))  # non-int/str OID
    return EventOccurrence(
        eid=eid,
        event_type=rng.choice(UNIVERSE),
        oid=oid,
        timestamp=rng.randint(1, 1 << 32),
        payload={"k": rng.randint(0, 9)} if rng.random() < 0.25 else {},
    )


def expect_inline(occurrence: EventOccurrence) -> bool:
    """The documented classification: which rows ride the ring inline."""
    if occurrence.payload:
        return False
    oid = occurrence.oid
    if type(oid) is int:
        return INT64_MIN <= oid <= INT64_MAX
    if type(oid) is str:
        return len(oid.encode("utf-8")) <= 26
    return False


def encode_batch(
    encoder: SnapshotRowCodec, occurrences: list[EventOccurrence]
) -> tuple[bytearray, list[bool]]:
    buffer = bytearray(len(occurrences) * ROW_WIDTH)
    inline = [
        encoder.encode_into(buffer, index * ROW_WIDTH, occurrence)
        for index, occurrence in enumerate(occurrences)
    ]
    return buffer, inline


def test_round_trip_matches_pickle_path_property():
    """Inline rows decode to the exact ``EventOccurrence.snapshot()`` tuples."""
    for seed in range(30):
        rng = random.Random(seed)
        occurrences = [
            random_occurrence(rng, eid) for eid in range(1, rng.randint(2, 40))
        ]
        encoder = SnapshotRowCodec()
        decoder = SnapshotRowCodec()
        shipped = 0
        buffer, inline = encode_batch(encoder, occurrences)
        # Ship the incremental type-table slice exactly like the transport.
        decoder.extend_types(encoder.type_snapshots[shipped:])
        shipped = len(encoder.type_snapshots)
        for index, occurrence in enumerate(occurrences):
            assert inline[index] == expect_inline(occurrence), (
                f"seed {seed}: eid {occurrence.eid} classified wrongly"
            )
            decoded = decoder.decode_from(buffer, index * ROW_WIDTH)
            if not inline[index]:
                assert decoded is None, f"seed {seed}: fallback row decoded"
                continue
            snapshot = occurrence.snapshot()
            assert decoded == snapshot, f"seed {seed}: eid {occurrence.eid}"
            # The decoded tuple rebuilds an equal occurrence object, exactly
            # like the pickle path's rows do on the worker side.
            assert EventOccurrence.from_snapshot(decoded) == occurrence


def test_fallback_classification_is_deterministic():
    alpha = EventType(Operation.CREATE, "alpha")
    codec = SnapshotRowCodec()
    buffer = bytearray(ROW_WIDTH)

    def encodes(occurrence: EventOccurrence) -> bool:
        inline = codec.encode_into(buffer, 0, occurrence)
        if not inline:
            # A placeholder row is still written: it must decode to None so
            # slot arithmetic stays one row per occurrence.
            assert codec.decode_from(buffer, 0) is None
        return inline

    def occurrence(**overrides) -> EventOccurrence:
        fields = dict(eid=1, event_type=alpha, oid=7, timestamp=5, payload={})
        fields.update(overrides)
        return EventOccurrence(**fields)

    assert encodes(occurrence())
    assert encodes(occurrence(oid="alpha#1"))
    # Payload-bearing rows always fall back, whatever the OID.
    assert not encodes(occurrence(payload={"k": 1}))
    # bool OIDs are not int64 rows (True would decode as 1, a different OID).
    assert not encodes(occurrence(oid=True))
    # bool eids likewise fall back rather than decoding as 0/1.
    assert not encodes(occurrence(eid=True))
    # Strings wider than the 26-byte field fall back; width is measured in
    # UTF-8 bytes, not characters.
    assert encodes(occurrence(oid="x" * 26))
    assert not encodes(occurrence(oid="x" * 27))
    assert encodes(occurrence(oid="é" * 13))  # 26 UTF-8 bytes
    assert not encodes(occurrence(oid="é" * 14))  # 28 UTF-8 bytes
    # Exotic OID types fall back.
    assert not encodes(occurrence(oid=("composite", 1)))
    assert not encodes(occurrence(oid=None))
    # eid / timestamp / int OIDs outside int64 fall back instead of wrapping.
    assert not encodes(occurrence(eid=INT64_MAX + 1))
    assert not encodes(occurrence(eid=INT64_MIN - 1))
    assert not encodes(occurrence(timestamp=INT64_MAX + 1))
    assert not encodes(occurrence(oid=INT64_MAX + 1))
    assert not encodes(occurrence(oid=INT64_MIN - 1))


def test_int64_boundary_values_encode_inline():
    alpha = EventType(Operation.MODIFY, "alpha", "size")
    encoder = SnapshotRowCodec()
    decoder = SnapshotRowCodec()
    occurrences = [
        EventOccurrence(eid=INT64_MAX, event_type=alpha, oid=INT64_MAX, timestamp=1),
        EventOccurrence(eid=INT64_MIN, event_type=alpha, oid=INT64_MIN, timestamp=1),
        EventOccurrence(eid=3, event_type=alpha, oid="", timestamp=INT64_MAX),
    ]
    buffer, inline = encode_batch(encoder, occurrences)
    assert all(inline)
    decoder.extend_types(encoder.type_snapshots)
    for index, occurrence in enumerate(occurrences):
        assert decoder.decode_from(buffer, index * ROW_WIDTH) == occurrence.snapshot()


def test_type_table_grows_incrementally_and_ships_as_prefix_slices():
    """The encoder interns each type once; the decoder consumes the slices."""
    rng = random.Random(99)
    encoder = SnapshotRowCodec()
    decoder = SnapshotRowCodec()
    shipped = 0
    seen_types: list[EventType] = []
    for eid in range(1, 60):
        event_type = rng.choice(UNIVERSE)
        occurrence = EventOccurrence(
            eid=eid, event_type=event_type, oid=eid, timestamp=eid
        )
        buffer = bytearray(ROW_WIDTH)
        assert encoder.encode_into(buffer, 0, occurrence)
        if event_type not in seen_types:
            seen_types.append(event_type)
        # The table holds exactly the distinct types met so far, in
        # first-met order — re-encoding a known type must not grow it.
        assert encoder.type_snapshots == [t.snapshot() for t in seen_types]
        # Ship only the incremental slice; the decoder's table stays a
        # prefix of the encoder's and every row decodes mid-stream.
        decoder.extend_types(encoder.type_snapshots[shipped:])
        shipped = len(encoder.type_snapshots)
        assert decoder.decode_from(buffer, 0) == occurrence.snapshot()
    assert len(encoder.type_snapshots) == len(UNIVERSE)


def test_decoded_string_oids_share_one_object():
    """Equal string OIDs decode to one object, as the calculus' dicts want."""
    encoder = SnapshotRowCodec()
    decoder = SnapshotRowCodec()
    tick = EventType(Operation.RAISE, "tick")
    buffer = bytearray(2 * ROW_WIDTH)
    for index in range(2):
        oid = "".join(["stock", "#", str(7)])  # a fresh str object each time
        occurrence = EventOccurrence(
            eid=index + 1, event_type=tick, oid=oid, timestamp=index + 1
        )
        assert encoder.encode_into(buffer, index * ROW_WIDTH, occurrence)
    decoder.extend_types(encoder.type_snapshots)
    first = decoder.decode_from(buffer, 0)
    second = decoder.decode_from(buffer, ROW_WIDTH)
    assert first[2] == "stock#7"
    assert first[2] is second[2]


def test_unknown_oid_kind_raises_snapshot_error():
    buffer = bytearray(ROW_WIDTH)
    struct.pack_into("<qqIBB26s", buffer, 0, 1, 1, 0, 7, 0, b"")  # kind 7
    codec = SnapshotRowCodec()
    with pytest.raises(SnapshotError, match="unknown OID kind"):
        codec.decode_from(buffer, 0)


def test_unshipped_type_index_raises_snapshot_error():
    encoder = SnapshotRowCodec()
    occurrence = EventOccurrence(
        eid=1, event_type=EventType(Operation.RAISE, "tick"), oid=1, timestamp=1
    )
    buffer = bytearray(ROW_WIDTH)
    assert encoder.encode_into(buffer, 0, occurrence)
    # A decoder that never received the type-table slice must refuse the row
    # (codec divergence) instead of fabricating a type.
    fresh = SnapshotRowCodec()
    with pytest.raises(SnapshotError, match="codec divergence"):
        fresh.decode_from(buffer, 0)


def test_ring_fallback_inherits_unpicklable_payload_guard():
    """The row log names the offending eid synchronously, before any send."""
    from repro.cluster.transport import _RowLog
    from repro.events.event_base import EventBase

    event_base = EventBase()
    event_base.record(EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=1)
    event_base.record(
        EventType(Operation.CREATE, "alpha"),
        oid="alpha#2",
        timestamp=2,
        payload={"callback": lambda: None},  # unpicklable user payload
    )
    log = _RowLog()
    with pytest.raises(SnapshotError) as excinfo:
        log.encode_through(event_base, len(event_base.occurrences))
    message = str(excinfo.value)
    assert "picklable" in message
    assert "eid=2" in message  # names the offending occurrence
    # The picklable prefix was still encoded inline.
    assert log.rows_inline == 1
