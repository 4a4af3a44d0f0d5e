#!/usr/bin/env bash
# Full CI gate, runnable locally: `./ci.sh`
#
# Mirrors .github/workflows/ci.yml. The chaos property tests are bounded
# via PROPTEST_CASES so the gate stays fast; raise it locally to stress
# the fault-tolerance machinery harder.
set -euo pipefail
cd "$(dirname "$0")"

: "${PROPTEST_CASES:=32}"
export PROPTEST_CASES

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== vocabulary gate =="
# One fact, one home: the 64-bit tag layout lives in crates/comm/src/tag.rs
# and the mark labels in crates/comm/src/mark.rs, and nothing else may grow
# a private copy. Checked over non-test code (each file up to its
# `#[cfg(test)]` module).
non_test_src() {
    local f
    for f in crates/*/src/*.rs crates/*/src/bin/*.rs; do
        awk -v F="$f" '/#\[cfg\(test\)\]/ { exit } { print F ":" FNR ":" $0 }' "$f"
    done
}
vocabulary_fail() {
    echo "vocabulary gate: $1" >&2
    shift
    printf '%s\n' "$@" >&2
    exit 1
}
# Tag shifts and control bits. Two look-alikes are not tags: the seed mix
# of FaultPlan::chance and the reconnect flag of rt-net's 8-byte hello.
stray=$(non_test_src | grep -v '^crates/comm/src/tag\.rs:' \
    | grep -E '<< *(40|48)\b|1(u64)? *<< *(5[7-9]|6[0-3])\b|<< *(16|20)\b.*[Tt]ag|[Tt]ag.*<< *(16|20)\b' \
    | grep -v -e 'wrapping_add((src as u64) << 48)' -e 'const RECONNECT_FLAG: u64' || true)
[ -z "$stray" ] || vocabulary_fail "tag bits outside rt_comm::tag" "$stray"
# Mark labels are parsed in exactly one place.
for needle in 'strip_prefix("step:")' '"flush:start"'; do
    sites=$(non_test_src | grep -F "$needle" || true)
    [ "$(grep -c . <<<"$sites")" -eq 1 ] \
        || vocabulary_fail "$needle must have exactly one site" "$sites"
done
# One frame-posting path, one failure-agreement round.
frames=$(non_test_src | grep '^crates/comm/src/comm\.rs:' | grep -c 'WireFrame {' || true)
[ "$frames" -le 2 ] || vocabulary_fail "comm.rs assembles WireFrame in $frames places"
rounds=$(grep -rn 'liveness_exchange(' crates/core/src || true)
[ "$(grep -c . <<<"$rounds")" -eq 1 ] \
    || vocabulary_fail "rt-core must call liveness_exchange from one place" "$rounds"
# What this vocabulary replaced stays gone, and so does the wall-clock
# bench stack the repo benchmark (benchmark/) retired: its two JSON files,
# the stub it ran on and every per-figure binary `figures` folded in. The
# change log, the planning files and a reviewer's notes are history and may
# say the names.
gone=$(grep -rn 'PuzzlePlan\|GATHER_TAG_BIT\|REPAIR_TAG_BIT\|fn repair_tag\|with_cost' \
    crates src tests examples || true)
[ -z "$gone" ] || vocabulary_fail "retired names are back" "$gone"
# A tile frame is one bundle per (sender, owner): the three-kind protocol
# (manifest, segment blob, one payload per tile) and its channels stay gone.
gone=$(grep -rnE 'manifest_bytes|manifest_bit|FIRST_ROUND|REPAIR_ROUND|Repair(Manifest|Payload|Segments)|TileChannel::(Manifest|Payload|Segments)' \
    crates src tests examples || true)
[ -z "$gone" ] || vocabulary_fail "the split tile protocol is back" "$gone"
bin_flag='--bin'
gone=$(grep -rnE "BENCH_(compose|kernels)|[c]riterion|$bin_flag +(perf|kernels|fig[5-8]|table1|bounds|ablation|scaling|trle_demo|walkthrough|inspect)\b" \
    crates src tests examples docs ./*.md ci.sh .github Cargo.toml \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md || true)
[ -z "$gone" ] || vocabulary_fail "the retired bench stack is back" "$gone"
# Hierarchical plans are span schedules: the third plan family, its
# executor, rt-comm's group views and the two-level pricing formula stay
# gone (bracketed so this line does not match itself).
gone=$(grep -rnE '[c]ompose_hier|[H]ierPlan|ComposePlan::[H]ier|[e]nter_group|[l]eave_group|[h]ier_gather_step|[h]ier_cost|[i]nter_cost' \
    crates src tests examples docs ./*.md ci.sh \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md --exclude=REVIEW.md || true)
[ -z "$gone" ] || vocabulary_fail "the hierarchical plan family is back" "$gone"
# A transport backend is two verbs: the backend-provided barrier, its error
# type and deadline knob, the non-blocking receive, the step hints rt-net
# was handed, the uncalled targeted payload corruption and the second worker
# binary stay gone.
gone=$(grep -rnE '[B]arrierError|[b]arrier_timeout|[d]eath_steps|[t]ry_recv_raw|[c]orrupt_payload|[c]haosrank' \
    crates src tests examples docs ./*.md ci.sh .claude \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md --exclude=REVIEW.md || true)
[ -z "$gone" ] || vocabulary_fail "the transport-level barrier vocabulary is back" "$gone"
# One kernel path, one renderer, four pixel types: the scalar/wide selector
# and the counters that recorded it, the ray-cast accel / octree / shading
# stack and the 8-bit colour pixel stay gone.
gone=$(grep -rnE 'KernelPath::[S]calar|[H]AS_WIDE_KERNEL|over_(front|back)_[b]ytes_with|_over_codes_[s]calar|(wide|scalar)_[k]ernel_(pixels|bytes)|[k]ernel_fallbacks|[r]ender_raycast_accel|[M]inMaxOctree|[r]ender_color|[R]gba8|[c]olor_views' \
    crates src tests examples docs ./*.md ci.sh .claude \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md --exclude=REVIEW.md || true)
[ -z "$gone" ] || vocabulary_fail "the second kernel path / second renderer / fifth pixel type is back" "$gone"
# A link has one queue, one data-frame writer and one way down: the evicting
# log's replay iterator, the second and third down paths and the two records
# that split a link's stream from its state stay gone.
gone=$(grep -rnE '[r]eplay_from|[w]riter_failed|fn [m]ark_down|struct [W]riterSlot|struct [L]inkState' \
    crates src tests examples docs ./*.md ci.sh .claude \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md --exclude=REVIEW.md || true)
[ -z "$gone" ] || vocabulary_fail "rt-net's second link paths are back" "$gone"

echo "== build (release) =="
cargo build --release --workspace

echo "== docs =="
# Rustdoc must be warning-free (broken intra-doc links, missing docs on
# public items under the crates' #![warn(missing_docs)]).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== markdown links =="
# Every relative link and #anchor in tracked markdown must resolve
# (stdlib-only checker; external URLs are not fetched).
python3 tools/linkcheck.py

echo "== prose budget =="
# The docs describe the system as it is and may not grow faster than the
# code shrinks: the four prose files plus docs/ stay under 2 400 lines, and
# a change-log entry is one line that fits a screen.
prose=$(cat README.md DESIGN.md EXPERIMENTS.md docs/*.md | wc -l)
[ "$prose" -le 2400 ] || { echo "prose budget: $prose lines of docs (limit 2400)" >&2; exit 1; }
entry=$(tail -n 1 CHANGES.md | wc -m)
[ "$entry" -le 1500 ] || { echo "prose budget: last CHANGES.md entry is $entry characters (limit 1500)" >&2; exit 1; }

echo "== doc examples =="
# The facade crate includes README.md and docs/METHODS.md as rustdoc, so
# every Rust block in them compiles and runs here. (The workspace test
# stage below repeats this; a dedicated stage makes a rotted doc snippet
# fail with a legible stage name.)
cargo test -q --release --doc -p rotate-tiling

echo "== tests (PROPTEST_CASES=$PROPTEST_CASES) =="
cargo test --workspace -q

echo "== render kernel equivalence =="
# The shear-warp scanline kernels against the per-sample renderer kept in
# rt-render's test module, bit for bit, over 256 random scenes in release
# (the workspace stage above runs the same property at PROPTEST_CASES in
# debug). Besides the `render` cells of tests/golden/trace_digests.txt this
# is the only gate on the float path.
PROPTEST_CASES=256 cargo test -q --release -p rt-render kernel_equivalence

echo "== net log bound =="
# rt-net's sent-frame log must follow the in-flight window, not the length
# of the run, and its reader threads must never wait on a sender: 2 000 x
# 256 KiB streamed one way and both ways with the log checked after every
# send, two ranks pushing 512 MiB at each other before either receives
# (10 ms heartbeats, under a watchdog), and chaos cuts at the header/payload
# boundary offsets after the log was trimmed — on real loopback sockets, in
# release (the workspace stage above runs the same files in debug).
# `resume.rs` pins what a link owes once it has gone down: a mutual 48 MiB
# replay, a sender held at the log's budget instead of losing frames, a
# silent peer taken down under a blocked sender. The both-mesh barrier test
# rides along so the message round of `RankCtx::barrier` is exercised
# optimised over TCP too.
cargo test -q --release -p rt-net \
    --test log_bound --test mutual_bulk --test resume --test barrier

echo "== net stall soak =="
# The mutual bulk exchange again, 20 times, with every core also running a
# busy loop: scheduling stalls longer than the test's five 10 ms heartbeats
# take the link down mid-bulk, so both ranks must resume it while each owes
# the other more than the socket buffers hold. The debug binary the
# workspace stage built is run directly; the first failing run fails CI.
soak_bin=$(cargo test -p rt-net --test mutual_bulk --no-run 2>&1 \
    | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
[ -x "$soak_bin" ] || { echo "net stall soak: no mutual_bulk test binary" >&2; exit 1; }
spinners=()
trap 'kill "${spinners[@]}" 2>/dev/null || true' EXIT
for _ in $(seq "$(nproc)"); do
    (while :; do :; done) &
    spinners+=($!)
done
for run in $(seq 20); do
    "$soak_bin" -q >/dev/null 2>&1 \
        || { echo "net stall soak: run $run of 20 failed" >&2; exit 1; }
done
kill "${spinners[@]}"
trap - EXIT

echo "== chaos smoke =="
# One tiny fault-tolerance sweep end to end: must print only bit-exact
# frames and a degradation report, and must be deterministic across reruns.
out1=$(cargo run -q --release -p rt-bench --bin chaos -- --p 4 --volume 16 --frame 48)
out2=$(cargo run -q --release -p rt-bench --bin chaos -- --p 4 --volume 16 --frame 48)
if grep -q DIVERGED <<<"$out1"; then
    echo "chaos sweep produced a diverged frame:" >&2
    grep DIVERGED <<<"$out1" >&2
    exit 1
fi
if [ "$out1" != "$out2" ]; then
    echo "chaos sweep is not deterministic across reruns" >&2
    exit 1
fi

echo "== chaos tcp smoke =="
# Socket-level chaos over real OS processes: the seeded smoke subset of
# the E9 scenario matrix (one scenario per fault family — clean control,
# connection reset, truncated frame, hard process kill, typed error),
# every cell gated inside the binary on the trichotomy (bit-exact |
# exact-degraded | typed error) under a watchdog and reconciled against
# its in-process reference. The verdict table is kept as a CI artifact.
chaos_tcp_log=target/chaos_tcp_smoke.txt
rm -f "$chaos_tcp_log"
cargo run -q --release -p rt-bench --bin chaos -- --transport tcp --smoke \
    | tee "$chaos_tcp_log"
grep -q 'scenarios passed the trichotomy gate' "$chaos_tcp_log"

echo "== reproduction pinned =="
# Every committed result (21 results/*.txt, BENCH_scale.json,
# BENCH_quality.json — the table is rt_bench::figures::PINNED) is
# regenerated in process on the virtual clock and must match its file byte
# for byte; a drifted file is named with its first differing line. An
# intended change is committed with RT_REGENERATE_GOLDEN=1.
cargo run -q --release -p rt-bench --bin figures -- check

echo "== quality smoke =="
# The E12 approximate-compositing grid at CI size (128x128, P=8,
# raw+trle): every cell is gated inside the binary — disjoint content
# must be byte-identical to the reference fold on BOTH transports at
# every budget, lossy cells must stay inside the declared Tolerance,
# and at least one Pareto cell must beat the fastest exact method at
# PSNR >= 40 dB. The bench-quality/v1 artifact is kept for inspection.
quality_out=target/quality_smoke.json
rm -f "$quality_out"
cargo run -q --release -p rt-bench --bin quality -- --smoke --out "$quality_out"
test -s "$quality_out"
grep -q '"schema": "bench-quality/v1"' "$quality_out"

echo "== display wall smoke =="
# The tile-ownership display-wall workload at CI size (720p virtual
# framebuffer onto a 2x2 wall): every cell is verified pixel-for-pixel
# against the sequential reference composite inside the binary, and the
# cell summary JSON is kept as a CI artifact.
wall_out=target/displaywall_cells.json
rm -f "$wall_out"
cargo run -q --release --example displaywall -- --smoke --out "$wall_out"
test -s "$wall_out"
grep -q '"schema": "displaywall-cells/v1"' "$wall_out"

echo "== profile smoke =="
# One-rep observed cell per method x codec at P=8: runs the observability
# layer end to end, asserts the bit-exact span-vs-replay reconciliation
# inside the binary, and re-validates every emitted Chrome-trace artifact.
profile_dir=target/profile_smoke
rm -rf "$profile_dir"
cargo run -q --release -p rt-bench --bin profile -- --smoke --out-dir "$profile_dir"
ls "$profile_dir"/PROFILE_*.json >/dev/null

echo "== scale smoke =="
# The E11 hierarchical-compositing cell at P=256, in process: the
# autotuner sweeps flat and two-level candidates, the binary executes
# the pick and its strongest flat/hierarchical rivals, reconciles every
# replayed timeline bit-exactly against its virtual-clock RankStats, and
# asserts that the pick is the measured virtual-clock winner, that the
# hierarchy beats the best flat method, and that its restricted topology
# dials strictly fewer sockets than the full mesh. The bench-scale/v1
# artifact is kept for inspection.
scale_out=target/bench_scale_smoke.json
rm -f "$scale_out"
cargo run -q --release -p rt-bench --bin scale -- --smoke --out "$scale_out"
test -s "$scale_out"
grep -q '"schema": "bench-scale/v1"' "$scale_out"
grep -q '"agree": true' "$scale_out"

echo "== benchmark smoke =="
# The repo benchmark (benchmark/, BENCHMARK.json) is a frozen standalone
# package with path dependencies on the crates above, so building it is
# the compile check that it still links the public API, and its smoke
# suite — one short round of every workload plus the traced runs, every
# frame verified, every declared metric present — is the end-to-end one.
# Run unmodified; results land in benchmark/out/smoke.json.
benchmark/smoke.sh

echo "CI gate passed."
