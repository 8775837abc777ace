#!/usr/bin/env python3
"""Structural check of a Chrome trace-event export (vampos-chaos / vampos-fleet --trace-out).

usage: validate_chrome_trace.py TRACE.json

The document parses; every complete span has name/ts/dur/pid/tid; thread
metadata is present; every process_name names a distinct pid; and every
flow id has exactly one start, one finish and any number of steps, in
non-decreasing ts order with the start first and the finish last.
"""
import json
import sys
from collections import defaultdict

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]

spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace exports at least one complete span"
for e in spans:
    for key in ("name", "ts", "dur", "pid", "tid"):
        assert key in e, f"span missing {key}: {e}"

threads = [e for e in events if e.get("ph") == "M" and e["name"] == "thread_name"]
assert threads, "per-component thread_name metadata present"

pids = [e["pid"] for e in events if e.get("ph") == "M" and e["name"] == "process_name"]
assert len(pids) == len(set(pids)), "every process_name names a distinct pid"

flows = defaultdict(list)
for e in events:
    if e.get("ph") in ("s", "t", "f"):
        flows[e["id"]].append(e)
for flow_id, hops in flows.items():
    phases = [e["ph"] for e in hops]
    assert phases[0] == "s" and phases[-1] == "f", f"flow {flow_id} runs {phases}"
    assert set(phases[1:-1]) <= {"t"}, f"flow {flow_id} runs {phases}"
    stamps = [e["ts"] for e in hops]
    assert stamps == sorted(stamps), f"flow {flow_id} goes back in time: {stamps}"

print(
    f"{len(events)} events, {len(spans)} spans, {len(threads)} tracks, "
    f"{len(pids)} processes, {len(flows)} flows: OK"
)
