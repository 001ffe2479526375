"""Unit tests for the trace identity (repro.util.telemetry):
traceparent parsing, minting and rendering.  What records under that
identity is tested in test_obs.py, what exports it in test_tracing.py,
the progress estimator in test_progress.py."""

import pytest

from repro.util.telemetry import (
    TraceContext,
    new_span_id,
    new_trace_id,
)


class TestTraceContext:
    def test_mint_is_valid_and_unique(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        assert a.trace_id != b.trace_id
        assert a.parent_id == ""

    def test_traceparent_roundtrip(self):
        ctx = TraceContext.mint()
        header = ctx.to_traceparent()
        child = TraceContext.from_traceparent(header)
        assert child is not None
        assert child.trace_id == ctx.trace_id
        # The incoming span becomes the parent; a fresh local span id
        # is minted (per the W3C propagation model).
        assert child.parent_id == ctx.span_id
        assert child.span_id != ctx.span_id

    def test_header_case_and_whitespace_tolerated(self):
        ctx = TraceContext.from_traceparent(
            "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        )
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-short-deadbeefdeadbeef-01",
        "00-" + "0" * 32 + "-" + "ab" * 8 + "-01",   # all-zero trace
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span
        "00-" + "zz" * 16 + "-" + "ab" * 8 + "-01",  # non-hex
        "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
        "00-" + "ab" * 16 + "-" + "cd" * 8 + "-xx",  # bad flags
    ])
    def test_malformed_headers_yield_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_id_generators(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        assert new_span_id() != new_span_id()
