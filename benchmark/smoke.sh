#!/usr/bin/env bash
# Build the benchmark, run the smoke suite (one short round of every workload
# plus the traced runs), check the result file names exactly what
# BENCHMARK.json declares, and run the unit tests. About a minute on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
out=benchmark/out/smoke.json

cargo build --release --offline --manifest-path "$manifest"
cargo run --release --quiet --offline --manifest-path "$manifest" -- --smoke --out "$out"

python3 - "$out" <<'EOF'
import json, sys

declared = json.load(open("BENCHMARK.json"))
result = json.load(open(sys.argv[1]))
problems = []
for workload in (w["name"] for w in declared["workloads"]):
    got = result["workloads"].get(workload)
    if got is None:
        problems.append(f"{workload}: missing")
        continue
    if got["failed"] != 0 or got["failed_frame_share"] != 0:
        problems.append(f"{workload}: {got['failed']} failed frames")
    for section in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in declared[section]}
        have = {name: entry["unit"] for name, entry in got[section].items()}
        for name in want.keys() - have.keys():
            problems.append(f"{workload}: {section} metric {name} is declared but was not emitted")
        for name in have.keys() - want.keys():
            problems.append(f"{workload}: {section} metric {name} was emitted but is not declared")
        for name in want.keys() & have.keys():
            if want[name] != have[name]:
                problems.append(f"{workload}: {name} has unit {have[name]}, declared {want[name]}")
            value = got[section][name]["value"]
            if not isinstance(value, (int, float)) or value != value:
                problems.append(f"{workload}: {name} is not a number: {value!r}")
    for name, entry in got["end_to_end"].items():
        if not entry["value"] > 0:
            problems.append(f"{workload}: end-to-end metric {name} is {entry['value']}, must be > 0")
for key in ("nproc", "cpu_model", "rustc", "git_commit", "profile"):
    if key not in result["host"]:
        problems.append(f"host stamp lacks {key}")
if problems:
    print("\n".join(problems))
    sys.exit(1)
print(f"{sys.argv[1]}: every declared metric of every workload is present, no failed frame")
EOF

cargo test --release --offline --manifest-path "$manifest"
