#!/usr/bin/env python3
"""Check that a benchmark result computes the same bytes as its baseline.

Wall-clock numbers move from run to run; what a frame *is* does not. For
every workload of the baseline that tools/trajectory_baseline.py picks for
RESULT.json's host, this requires the input and frame-0 hashes and the
exact per-layer rows to be equal in RESULT.json: wire bytes, virtual
compose time and its 32-rank projection, messages and `over` pixels per
frame. The smoke suite (`benchmark/smoke.sh`) runs the full suite's seed,
so its exact rows are the full suite's.

Usage: python3 tools/smoke_identity.py benchmark/out/smoke.json
Exit status: 0 if every row is equal, or if no trajectory line has this
host (the reason on stdout: nothing to compare against); 1 naming each
differing or missing row, or a malformed file; 2 on a usage error.
"""

import json
import sys

from trajectory_baseline import TRAJECTORY, baseline_of

HASHES = ("input_fnv", "frame0_fnv")
EXACT = (
    "wire_bytes_per_frame",
    "virtual_compose_ms",
    "core.messages_per_frame",
    "core.over_pixels_per_frame",
    "core.virtual_compose_ms_p32",
)


def rows(workload):
    """Every compared row of one workload's result, by name."""
    got = {name: workload.get(name) for name in HASHES}
    layer = workload.get("per_layer", {})
    got.update({name: layer.get(name, {}).get("value") for name in EXACT})
    return got


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/smoke_identity.py RESULT.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            result = json.load(f)
        host, line = baseline_of(result, argv[1])
        if line is None:
            print(f"smoke_identity: skipped, no line of {TRAJECTORY.name} has host {host}")
            return 0
        baseline = json.loads(line)
        commit = baseline["host"].get("git_commit", "?")
        result, baseline = result["workloads"], baseline["workloads"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"smoke_identity: {e}", file=sys.stderr)
        return 1
    problems = []
    for name, want in baseline.items():
        if name not in result:
            problems.append(f"{name}: missing")
            continue
        got = rows(result[name])
        for row, value in rows(want).items():
            if value is None or got[row] != value:
                problems.append(f"{name}: {row} is {got[row]!r}, baseline {value!r}")
    if problems:
        print("\n".join(f"smoke_identity: {p}" for p in problems), file=sys.stderr)
        return 1
    print(f"{argv[1]}: {len(baseline)} workloads x {len(HASHES) + len(EXACT)} rows "
          f"equal to the trajectory line of {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
