#!/usr/bin/env python3
"""Print the baseline a suite result compares against.

A host's identity is `(nproc, cpu_model, rustc, profile)` from a result's
`host` block, the CPU model with its ` @ <clock>` suffix stripped: the same
machine has reported its model with and without the clock, and only that
suffix told those reports apart, while a different CPU (an AMD EPYC against
an Intel Xeon) is a different host, whose numbers are no baseline. The
baseline of SUITE.json is the last line of BENCH_trajectory.jsonl (at the
repo root, beside tools/) whose identity equals SUITE.json's.

Usage: python3 tools/trajectory_baseline.py SUITE.json > previous.json
Exit status: 0 with the baseline line on stdout; 1 if no line matches, if
SUITE.json or any trajectory line lacks an identity key, or if a line is
not JSON (each reason on stderr); 2 on a usage error.
"""

import json
import sys
from pathlib import Path

IDENTITY = ("nproc", "cpu_model", "rustc", "profile")
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.jsonl"


def identity(result, where):
    host = result.get("host") if isinstance(result, dict) else None
    missing = [k for k in IDENTITY if not isinstance(host, dict) or k not in host]
    if missing:
        raise ValueError(f"{where}: host block lacks {', '.join(missing)}")
    return tuple(cpu_family(host[k]) if k == "cpu_model" else host[k] for k in IDENTITY)


def cpu_family(model):
    """A CPU model string without its ` @ <clock>` suffix."""
    return model.split(" @ ")[0].strip() if isinstance(model, str) else model


def baseline_of(result, where):
    """The host identity of `result` (read from `where`) and its baseline
    line, None if no line has that identity; ValueError or OSError naming
    the file or line that is malformed or unreadable."""
    want = identity(result, where)
    baseline = None
    for n, line in enumerate(TRAJECTORY.read_text().splitlines(), 1):
        at = f"{TRAJECTORY.name}:{n}"
        try:
            recorded = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{at}: not JSON ({e})") from None
        if identity(recorded, at) == want:
            baseline = line
    return dict(zip(IDENTITY, want)), baseline


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/trajectory_baseline.py SUITE.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            host, baseline = baseline_of(json.load(f), argv[1])
    except (OSError, ValueError) as e:
        print(f"trajectory_baseline: {e}", file=sys.stderr)
        return 1
    if baseline is None:
        print(f"trajectory_baseline: no line of {TRAJECTORY.name} has host {host}",
              file=sys.stderr)
        return 1
    print(baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
