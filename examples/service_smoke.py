"""Service smoke run: boot the preemptable join service, page a
STOP AFTER query through it over HTTP, and export session metrics
plus the request's trace.

Exercises the full serving stack the way CI does: an asyncio server
on an ephemeral port, the synchronous client paging a bounded join
across several scheduler quanta under a propagated W3C traceparent,
certified progress checked for monotonicity between pages, the
``/debug`` introspection endpoints, and the per-session metrics
written as JSON-lines (pass a path as argv[1]; defaults to
``service-metrics.jsonl`` in the working directory).  The session's
Chrome-format trace lands next to the metrics file as
``<metrics>-trace.json``.

Run:  python examples/service_smoke.py [artifacts/metrics.jsonl]
"""

import asyncio
import json
import os
import sys
import tempfile
import threading

from repro.datasets import uniform_points
from repro.query import Database
from repro.service import JoinService, ServiceClient
from repro.util.obs import write_metrics

SQL = (
    "SELECT * FROM stores, homes, "
    "DISTANCE(stores.geom, homes.geom) AS d "
    "ORDER BY d STOP AFTER 120"
)

#: A fixed client-side trace identity the server must adopt.
TRACEPARENT = "00-" + "c1" * 16 + "-" + "0d" * 8 + "-01"


def main():
    metrics_path = sys.argv[1] if len(sys.argv) > 1 \
        else "service-metrics.jsonl"
    out_dir = os.path.dirname(metrics_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    trace_path = metrics_path + "-trace.json"

    db = Database()
    db.create_relation("stores", uniform_points(150, seed=7))
    db.create_relation("homes", uniform_points(400, seed=8))

    with tempfile.TemporaryDirectory() as spool:
        service = JoinService(
            db, quantum_pairs=16, spool_dir=spool,
        )
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start(port=0))
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        if not started.wait(10):
            raise SystemExit("server failed to start")
        print(f"service listening on 127.0.0.1:{service.port}")

        client = ServiceClient(port=service.port)
        admission = client.admit(SQL, traceparent=TRACEPARENT)
        session_id = admission["session"]
        assert admission["trace_id"] == "c1" * 16, \
            f"traceparent not adopted: {admission}"
        print(f"admitted session {session_id} "
              f"trace {admission['trace_id']}")

        total, pages, quanta = 0, 0, 0
        bounds = []
        trace = None
        while True:
            reply = client.next(session_id, k=25)
            total += len(reply["rows"])
            pages += 1
            quanta = reply["quanta"]
            if reply["done"]:
                break
            # The session is still live: certified progress must be
            # monotone, /debug must list it, and the trace
            # must carry the propagated trace id.
            progress = client.progress(session_id)["progress"]
            bounds.append(progress["lower_bound"])
            debug = client.debug_sessions()
            assert any(
                entry["session"] == session_id for entry in debug
            ), f"/debug/sessions is missing {session_id}: {debug}"
            trace = client.debug_trace(session_id, fmt="chrome")
        print(f"paged {total} rows in {pages} pages / {quanta} quanta")
        assert total == 120, f"expected 120 rows, got {total}"
        assert quanta >= 3, "the 16-pair quantum must preempt"
        assert bounds == sorted(bounds), \
            f"certified lower bound regressed: {bounds}"
        assert bounds and bounds[-1] > 0, \
            f"lower bound never moved: {bounds}"
        print(f"certified lower bounds per page: "
              f"{[round(b, 3) for b in bounds]}")

        assert trace is not None and trace["traceEvents"], \
            "no trace captured before the stream finished"
        span_names = {
            event.get("name") for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        assert "request" in span_names, sorted(span_names)
        assert "service.quantum" in span_names, sorted(span_names)
        traced_ids = {
            event["args"].get("trace_id")
            for event in trace["traceEvents"]
            if event.get("ph") == "X" and "args" in event
        }
        assert traced_ids == {"c1" * 16}, traced_ids
        with open(trace_path, "w") as handle:
            json.dump(trace, handle)
        print(f"trace -> {trace_path} "
              f"({len(trace['traceEvents'])} events)")

        # Session metrics (scheduler counters + per-session spans and
        # gauges) in the shared metrics schema.
        records = service.scheduler.metrics(
            labels={"example": "service_smoke"}
        )
        write_metrics(metrics_path, records=records)
        print(f"metrics -> {metrics_path} (+ .prom)")

        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
    print("service smoke OK")


if __name__ == "__main__":
    main()
