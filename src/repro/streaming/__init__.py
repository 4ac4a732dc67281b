"""Streaming substrate: streams, events, columnar batches, space metering, the runner."""

from repro.streaming.adapters import (
    edge_events_to_set_events,
    edge_stream_from_set_stream,
    interleave_edges,
    set_events_to_edge_events,
    set_stream_from_edge_stream,
)
from repro.streaming.batches import DEFAULT_BATCH_SIZE, EventBatch
from repro.streaming.events import EdgeArrival, SetArrival
from repro.streaming.runner import (
    StreamingAlgorithm,
    StreamingReport,
    StreamingRunner,
    process_event_batch,
)
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import STREAM_ORDERS, EdgeStream, SetStream

__all__ = [
    "EdgeArrival",
    "SetArrival",
    "EventBatch",
    "DEFAULT_BATCH_SIZE",
    "EdgeStream",
    "SetStream",
    "STREAM_ORDERS",
    "SpaceMeter",
    "StreamingAlgorithm",
    "StreamingReport",
    "StreamingRunner",
    "process_event_batch",
    "edge_events_to_set_events",
    "edge_stream_from_set_stream",
    "interleave_edges",
    "set_events_to_edge_events",
    "set_stream_from_edge_stream",
]
