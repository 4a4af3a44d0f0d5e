#!/usr/bin/env python3
"""Name the time a traced compose spends in no phase.

Reads a benchmark Chrome trace (`benchmark/out/trace_<workload>.json`, written
by a `--trace 1` run or the smoke suite) and prints one row per rank: the
frames it composed, the mean `core.compose_plan` time, each phase's mean self
time and the gap -- the part of `core.compose_plan` covered by no phase -- all
in microseconds per frame. Phases are self times, the way the benchmark's
`core.phase.*_ms` rows count them, so `wait` (nested inside `recv`) is counted
once and the phases plus the gap add up to the `core.compose_plan` mean.

    python3 tools/trace_gaps.py benchmark/out/trace_compose_tiles_tcp.json

Exits 1 unless every rank track of the trace has exactly one row. Stdlib only.
"""

import json
import sys
from collections import defaultdict

CALL = "core.compose_plan"
PHASE = "core.phase."
ORDER = ["encode", "send", "recv", "wait", "decode", "over", "flush"]


def rank_rows(trace):
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    spans = {}
    ranks = set()
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            if e["args"]["name"].startswith("rank "):
                ranks.add(e["tid"])
        elif e.get("ph") == "X":
            spans[e["args"]["id"]] = e
    own = {i: e["dur"] for i, e in spans.items()}
    for e in spans.values():
        parent = e["args"].get("parent")
        if parent in own:
            own[parent] -= e["dur"]
    frames = defaultdict(int)
    call_us = defaultdict(float)
    phase_us = defaultdict(lambda: defaultdict(float))
    for i, e in spans.items():
        name, rank = e["name"], e["tid"]
        if name == CALL:
            frames[rank] += 1
            call_us[rank] += e["dur"]
            phase_us[rank]["gap"] += own[i]
        elif name.startswith(PHASE):
            phase_us[rank][name[len(PHASE):]] += own[i]
    return ranks, frames, call_us, phase_us


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        ranks, frames, call_us, phase_us = rank_rows(json.load(f))
    seen = sorted({p for r in phase_us.values() for p in r} - {"gap"})
    phases = [p for p in ORDER if p in seen] + [p for p in seen if p not in ORDER]
    head = ["rank", "frames", "compose"] + phases + ["gap", "coverage"]
    print("  ".join(f"{h:>8}" for h in head))
    for rank in sorted(frames):
        n = frames[rank]
        cells = [rank, n, call_us[rank] / n]
        cells += [phase_us[rank][p] / n for p in phases + ["gap"]]
        cells.append(1 - phase_us[rank]["gap"] / call_us[rank] if call_us[rank] else 0)
        out = [f"{cells[0]:>8}", f"{cells[1]:>8}"]
        out += [f"{c:>8.1f}" for c in cells[2:-1]] + [f"{cells[-1]:>8.3f}"]
        print("  ".join(out))
    if not ranks or set(frames) != ranks:
        print(f"trace_gaps: rows for ranks {sorted(frames)}, trace has rank tracks "
              f"{sorted(ranks)}", file=sys.stderr)
        return 1
    print(f"{len(ranks)} ranks, microseconds per frame; phases are self times")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
