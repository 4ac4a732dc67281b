"""Streaming substrate: streams, events, columnar batches, space metering, the runner."""

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
]
