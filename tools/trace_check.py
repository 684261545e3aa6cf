#!/usr/bin/env python3
"""Checks an `amopt --trace` file against the `--profile` of the same run.

    python3 tools/trace_check.py TRACE.json PROFILE.json

The trace is the Chrome trace_event export of the profiler's phase tree,
so the two files must describe the same tree:

- the trace is a {"traceEvents": [...]} document of complete ("X")
  events with integer ts/dur and args {calls, alloc_bytes, alloc_calls};
- the event names, in order, are the profile's non-root node names in
  preorder, and each event's args equal its node's counts;
- every event's [ts, ts+dur] lies inside its parent node's event.

Exits 0 when all hold, 1 with a message naming the first violation.
"""

import json
import sys


def fail(msg):
    print("trace_check: " + msg, file=sys.stderr)
    sys.exit(1)


def preorder(node, parent, out):
    """Appends (node, index of the parent's entry or None) in preorder."""
    for child in node.get("children", []):
        out.append((child, parent))
        preorder(child, len(out) - 1, out)


def check(trace, profile):
    if profile.get("schema") != "amprof-v1":
        fail("profile schema is %r, not amprof-v1" % profile.get("schema"))
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail("trace has no traceEvents array")
    for i, ev in enumerate(events):
        if ev.get("ph") != "X" or not isinstance(ev.get("name"), str):
            fail("event %d is not a named complete event: %r" % (i, ev))
        for key in ("ts", "dur"):
            if not isinstance(ev.get(key), int) or ev[key] < 0:
                fail("event %d has no non-negative integer %s" % (i, key))
        args = ev.get("args", {})
        for key in ("calls", "alloc_bytes", "alloc_calls"):
            if not isinstance(args.get(key), int):
                fail("event %d args lack integer %s" % (i, key))

    nodes = []
    preorder(profile["tree"], None, nodes)
    names = [n["name"] for n, _ in nodes]
    if [ev["name"] for ev in events] != names:
        fail("event names %r differ from profile nodes %r"
             % ([ev["name"] for ev in events], names))
    for i, ((node, parent), ev) in enumerate(zip(nodes, events)):
        for key in ("calls", "alloc_bytes", "alloc_calls"):
            if ev["args"][key] != node[key]:
                fail("event %d (%s) %s=%d, profile says %d"
                     % (i, ev["name"], key, ev["args"][key], node[key]))
        if parent is None:
            continue
        outer = events[parent]
        if (ev["ts"] < outer["ts"] or
                ev["ts"] + ev["dur"] > outer["ts"] + outer["dur"]):
            fail("event %d (%s) [%d, %d] escapes its parent %s [%d, %d]"
                 % (i, ev["name"], ev["ts"], ev["ts"] + ev["dur"],
                    outer["name"], outer["ts"], outer["ts"] + outer["dur"]))
    return len(events)


def main(argv):
    if len(argv) != 3:
        print("usage: trace_check.py TRACE.json PROFILE.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            trace = json.load(f)
        with open(argv[2]) as f:
            profile = json.load(f)
    except (OSError, ValueError) as e:
        fail(str(e))
    n = check(trace, profile)
    print("trace_check: %d events nest and match the profile" % n)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
