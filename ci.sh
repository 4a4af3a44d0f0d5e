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
# a private copy. Checked over non-test code: each file without its test
# modules, each cut from a column-0 `#[cfg(test)]` followed by `mod <name> {`
# to that module's column-0 closing brace, and without the files their
# parent declares as a test module (`#[cfg(test)]` at column 0, then
# `mod <name>;`). Code after a test module, and test-only items inside
# non-test code, stay in view.
non_test_src() {
    local f test_files
    test_files=$(awk '
        /^#\[cfg\(test\)\]/ {
            if ((getline next_line) <= 0 || next_line !~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;$/)
                next
            name = next_line; sub(/^.*mod /, "", name); sub(/;$/, "", name)
            dir = FILENAME; sub(/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod" && dir !~ /\/src\/bin\/$/)
                dir = dir stem "/"
            print dir name ".rs"
        }' crates/*/src/*.rs crates/*/src/bin/*.rs)
    for f in crates/*/src/*.rs crates/*/src/bin/*.rs; do
        grep -qxF "$f" <<<"$test_files" && continue
        awk -v F="$f" '
            skip { if (/^}/) skip = 0; next }
            /^#\[cfg\(test\)\]/ {
                line = $0; n = FNR
                if ((getline next_line) > 0 && next_line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/) {
                    skip = 1
                    next
                }
                print F ":" n ":" line
                if (FNR > n) print F ":" FNR ":" next_line
                next
            }
            { print F ":" FNR ":" $0 }' "$f"
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
# Marks and chaos verdicts are data: the trace stores a closed `Mark`, so
# the catch-all variant and the infallible label conversion stay gone, and
# so do the verdict's string constants (bracketed so this line does not
# match itself).
gone=$(grep -rnE 'Mark::[O]ther|From<&str> for [M]ark|outcome::([O]K|[D]EGRADED|[E]RROR)\b' \
    crates src tests examples docs README.md DESIGN.md EXPERIMENTS.md \
    PAPER.md PAPERS.md SNIPPETS.md ci.sh .claude || true)
[ -z "$gone" ] || vocabulary_fail "marks or chaos outcomes are strings again" "$gone"
# One virtual clock: the cost model's per-event prices are charged by the
# replay walk alone; the analyzer prices a schedule by replaying the trace it
# compiles to.
stray=$(non_test_src | grep -v '^crates/comm/src/replay\.rs:' \
    | grep -E '\.(message|compute|backoff)_time\(' || true)
[ -z "$stray" ] || vocabulary_fail "clock arithmetic outside rt_comm::replay" "$stray"
# One frame-posting path, one failure-agreement round.
frames=$(non_test_src | grep '^crates/comm/src/comm\.rs:' | grep -c 'WireFrame {' || true)
[ "$frames" -le 2 ] || vocabulary_fail "comm.rs assembles WireFrame in $frames places"
# One envelope checksum: the delivery envelope's hash is defined once, in
# crates/comm/src/comm.rs.
sites=$(non_test_src | grep -E '\bfn fnv1a\b' || true)
{ [ "$(grep -c . <<<"$sites")" -eq 1 ] && grep -q '^crates/comm/src/comm\.rs:' <<<"$sites"; } \
    || vocabulary_fail "the envelope checksum must be defined once, in rt_comm::comm" "$sites"
# Each buffer is hashed once: the one call of the hash outside tests (comment
# lines aside) is inside `Payload::checksum`, which keeps the value in the
# payload; sends, receives and control rounds read it there.
sites=$(non_test_src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -E '\bfnv1a\(' \
    | grep -vE '\bfn fnv1a\(' || true)
memo=$(awk '/^impl Payload \{$/ { s = 1 } s && /^    fn checksum\(/ { f = FNR }
    f && /^    }$/ { print f "-" FNR; exit }' crates/comm/src/comm.rs)
{ [ "$(grep -c . <<<"$sites")" -eq 1 ] && [ -n "$memo" ] \
    && awk -F: -v r="$memo" 'BEGIN { split(r, b, "-") }
        !($1 == "crates/comm/src/comm.rs" && $2 > b[1] && $2 < b[2]) { exit 1 }' <<<"$sites"; } \
    || vocabulary_fail "the envelope checksum must be called once, inside Payload::checksum" "$sites"
rounds=$(grep -rn 'liveness_exchange(' crates/core/src || true)
[ "$(grep -c . <<<"$rounds")" -eq 1 ] \
    || vocabulary_fail "rt-core must call liveness_exchange from one place" "$rounds"
# What this vocabulary replaced stays gone, and so does the wall-clock
# bench stack the repo benchmark (benchmark/) retired: its two JSON files,
# the stub it ran on and every per-figure binary `figures` folded in. So do
# the sweep's binade bands, a second pass-1 path beside the one `f32`
# stencil, and the code no caller used: the `f32` RGBA pixel, the PGM and
# raw-volume readers, the bounding rectangle and the lock a resident rank's
# transport sat behind (bracketed so this line does not match itself). The
# change log, the planning files and a reviewer's notes are history and
# may say the names.
gone=$(grep -rn 'PuzzlePlan\|GATHER_TAG_BIT\|REPAIR_TAG_BIT\|fn repair_tag\|with_cost\|struct Sim\b\|band_end\|binades(\|struct Band\b\|struct [R]gba\b\|fn [r]ead_pgm\|fn [r]ead_raw\|fn [w]rite_raw\|fn [b]ounding_rect\|struct [L]ent\b' \
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
# Methods are data: `Method` is the one way to name and compile a method, so
# the trait behind it, its five method objects and the tile-ownership intra
# method stay gone (bracketed so this line does not match itself).
gone=$(grep -rnE '[C]ompositionMethod|[B]inarySwap::new|[w]ith_fold\(\)|[P]arallelPipelined::new|[D]irectSend::new|[R]otateTiling::(two_n|n|unchecked)\b|[R]adixK|[I]ntraMethod::TileOwner' \
    crates src tests examples docs ci.sh .claude \
    DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md README.md SNIPPETS.md || true)
[ -z "$gone" ] || vocabulary_fail "a second method vocabulary is back" "$gone"
# A transport backend is two verbs: the backend-provided barrier, its error
# type and deadline knob, the non-blocking receive, the step hints rt-net
# was handed, the uncalled targeted payload corruption and the second worker
# binary stay gone.
gone=$(grep -rnE '[B]arrierError|[b]arrier_timeout|[d]eath_steps|[t]ry_recv_raw|[c]orrupt_payload|[c]haosrank' \
    crates src tests examples docs ./*.md ci.sh .claude \
    --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md --exclude=REVIEW.md || true)
[ -z "$gone" ] || vocabulary_fail "the transport-level barrier vocabulary is back" "$gone"
# One kernel path, one renderer, three pixel types: the scalar/wide selector
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
# One gather and one sweep driver: the root is the one-cell display wall,
# so the separate root gather stays gone, and the slab sweep has no
# row-parallel option beside its slice-major loop (bracketed so this line
# does not match itself). The change log and the roadmap may name them.
gone=$(grep -rnE '[g]ather_to_root|[w]ith_parallel|[o]pts\.parallel' \
    crates src tests examples docs ci.sh .claude \
    ./DESIGN.md ./EXPERIMENTS.md ./PAPER.md ./PAPERS.md ./README.md ./SNIPPETS.md || true)
[ -z "$gone" ] || vocabulary_fail "the second gather or the second sweep driver is back" "$gone"
# Every setting earns a caller: the no-gather mode and the compose output's
# residual image, the stream window and the second stream handle, rt-net's
# four extra transport constructors, the star builder, the peer list and
# the deadline-less rendezvous stay gone; so do the repair switch and the
# per-rank crash lookup, since the fault plan alone decides a repair
# (bracketed so this line does not match itself). The change log, the
# roadmap and the experiment log record history and may name them.
gone=$(grep -rnE '\b[w]ith_gather\b|\.[r]esidual\b|\b[w]ith_window\b|\b[S]treamClient\b|\b[l]oopback_mesh(_with)?\(|\b[e]stablish_with\b|\b[e]stablish_topology\b|\b[l]oopback_topology\b|\b[w]ith_star\b|\b[p]eers_of\b|\b[r]endezvous\(|\.[r]esilient\b|\b[m]y_crash_step\b' \
    crates src tests examples docs ci.sh .claude \
    ./DESIGN.md ./PAPER.md ./PAPERS.md ./README.md ./SNIPPETS.md || true)
[ -z "$gone" ] || vocabulary_fail "a setting or entry point with one value in use is back" "$gone"
# Each count is kept once: message, retransmit and byte counts are the
# trace's, so the observer's copies, the replay's and the stream frame's
# stay gone; so do the tile counters nothing read and the tuner's codec axis
# no caller enabled (bracketed so this line does not match itself).
gone=$(grep -rnE '[t]iles_scanned|[t]iles_exact_fallback|[a]ck_timeouts|[b]ytes_received|[m]essages_sent|[F]rameStats|[c]odec_ratios|[w]ire_model' \
    crates src tests examples docs ci.sh .claude ./DESIGN.md ./EXPERIMENTS.md \
    ./PAPER.md ./PAPERS.md ./README.md ./SNIPPETS.md || true)
[ -z "$gone" ] || vocabulary_fail "a second tally of a traced count is back" "$gone"
# A frame is a stream of one: rt-pvr has one per-rank frame body, so its
# non-test code has no barrier and marks a render's start in one place.
pvr=$(non_test_src | grep '^crates/pvr/src/' || true)
stray=$(grep -F '.barrier()' <<<"$pvr" || true)
[ -z "$stray" ] || vocabulary_fail "rt-pvr waits on a barrier again" "$stray"
sites=$(grep -F 'Mark::RenderStart' <<<"$pvr" || true)
[ "$(grep -c . <<<"$sites")" -eq 1 ] \
    || vocabulary_fail "rt-pvr must mark RenderStart in exactly one place" "$sites"
# One unsafe, one CPU-width dispatch: `KernelCopy::run` in rt-imaging's
# kernels.rs calls the AVX2 copy of a span kernel (the 8-bit merges and
# unpack, rt-render's row kernel). Non-test code (comments aside) holds
# exactly that one unsafe, names `target_feature` and the feature probe
# nowhere else, uses nothing of core::arch or std::arch but the probe, and
# neither crate whose kernels run in both copies fuses a product into a sum,
# so the copies round alike.
code=$(non_test_src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
sites=$(grep -w 'unsafe' <<<"$code" || true)
{ [ "$(grep -c . <<<"$sites")" -eq 1 ] && grep -q '^crates/imaging/src/kernels\.rs:' <<<"$sites"; } \
    || vocabulary_fail "non-test code must hold one unsafe, the span kernel dispatch" "$sites"
stray=$(grep -E 'target_feature|is_x86_feature_detected!' <<<"$code" \
    | grep -v '^crates/imaging/src/kernels\.rs:' || true)
[ -z "$stray" ] || vocabulary_fail "a CPU-width dispatch outside rt_imaging::kernels" "$stray"
stray=$(grep -E '(core|std)::arch' <<<"$code" | grep -vF 'std::arch::is_x86_feature_detected!' || true)
[ -z "$stray" ] || vocabulary_fail "core::arch / std::arch beyond the feature probe" "$stray"
stray=$(grep -E '^crates/(render|imaging)/src/' <<<"$code" | grep -F 'mul_add' || true)
[ -z "$stray" ] || vocabulary_fail "a span kernel fuses a product into a sum" "$stray"
# One `over`: rt-core composites two in-memory pixel slices only through
# `Pixel::over_{front,back}_slice`, so no `.over(` call is left in its
# non-test code but the symbolic `Run::over` that proves schedules in
# schedule.rs, a file that names no pixel type. And a tile's rows are
# arithmetic: `TileGrid` hands out no `Vec<Span>`.
core=$(grep '^crates/core/src/' <<<"$code" || true)
stray=$(grep -v '^crates/core/src/schedule\.rs:' <<<"$core" | grep -F '.over(' || true)
[ -z "$stray" ] || vocabulary_fail "rt-core merges pixels in its own over loop" "$stray"
stray=$(grep '^crates/core/src/schedule\.rs:' <<<"$core" \
    | grep -wE 'Pixel|GrayAlpha8?|Rgba|Provenance' || true)
[ -z "$stray" ] || vocabulary_fail "schedule.rs, home of the symbolic Run::over, names a pixel type" "$stray"
stray=$(awk '/^impl TileGrid \{/,/^\}/' crates/core/src/tile.rs | grep -F 'Vec<Span>' || true)
[ -z "$stray" ] || vocabulary_fail "TileGrid returns a Vec<Span> again" "$stray"
# Nothing is merged onto a blank buffer: the gather, `Place` and puzzle
# placement receive through `Stage::unpack`, which writes the stream with
# `Codec::decode_into` and never runs `decode_over`.
stray=$(awk '/^    pub fn unpack\(/,/^    }$/' crates/core/src/exec.rs | grep -F 'decode_over' || true)
[ -z "$stray" ] || vocabulary_fail "Stage::unpack merges onto blank again" "$stray"
grep -q '^    pub fn unpack(' crates/core/src/exec.rs \
    || vocabulary_fail "Stage::unpack is gone from crates/core/src/exec.rs" ""
# One price per `over`: `Stage` in exec.rs is rt-core's one home of the
# decode, the merge and the virtual-clock `Over` charge, so no other
# non-test code of the crate calls a codec's decode entry, merges two pixel
# slices or charges an `over`. A comparison with `ComputeKind::Over` reads a
# recorded event and charges nothing; analysis.rs, the static model of the
# raw schedule's trace, writes its events itself.
stage_lines=$(awk '/^impl<.*> Stage<.*> \{$/ { s = FNR } s && /^}$/ { print s "-" FNR; exit }' \
    crates/core/src/exec.rs)
[ -n "$stage_lines" ] || vocabulary_fail "impl Stage is gone from crates/core/src/exec.rs" ""
stray=$(grep -v '^crates/core/src/analysis\.rs:' <<<"$core" \
    | awk -F: -v r="$stage_lines" 'BEGIN { split(r, b, "-") }
        !($1 == "crates/core/src/exec.rs" && $2 >= b[1] && $2 <= b[2])' \
    | grep -E '\bComputeKind::Over\b|\bover_(back|front)_slice\b|\.over_(back|front)\(|\.decode(_over|_into)?\(' \
    | grep -vE '==[[:space:]]*(rt_comm::)?ComputeKind::Over\b' || true)
[ -z "$stray" ] || vocabulary_fail "rt-core decodes, merges or prices an over outside Stage" "$stray"
# One gather reads each owner's spans off its plan as it ships them: no
# per-owner span lists, no segment list handed back through an
# out-parameter, no ownership map on the compose output and no per-row
# ownership list built by the tile executor.
stray=$({ grep -F 'spans_of' <<<"$core"
    grep '^crates/core/src/display\.rs:' <<<"$core" | grep -F '&mut Vec<(Span, usize)>'
    grep '^crates/core/src/exec\.rs:' <<<"$core" | grep -E '\bpub owners\b'
    grep '^crates/core/src/tile\.rs:' <<<"$core" | grep -F 'Vec<(Span, usize)>'
} || true)
[ -z "$stray" ] || vocabulary_fail "the gather builds ownership lists again" "$stray"
# The tile round pays nothing per blank pixel and copies no stream twice:
# the content scan asks the pixel type's blank-slice kernel once per tile
# row, with no per-pixel `is_blank` test in tile.rs, and each tile is
# encoded straight into its bundle, with no `write_bundle(` of finished
# streams left in rt-core (the copying writer is a test oracle now).
stray=$({ grep '^crates/core/src/tile\.rs:' <<<"$core" | grep -F 'is_blank'
    grep -F 'write_bundle(' <<<"$core"
} || true)
[ -z "$stray" ] || vocabulary_fail "the tile round scans pixel by pixel or copies its streams again" "$stray"
# TRLE encodes in two passes through one run packer: the codec classifies
# and writes its message straight from the pixels, with no staged wire copy
# of the span, and rt-compress builds a TRLE code in one place.
compress=$(grep '^crates/compress/src/' <<<"$code" || true)
stray=$(grep '^crates/compress/src/trle\.rs:' <<<"$compress" | grep -F 'pixels_to_bytes' || true)
[ -z "$stray" ] || vocabulary_fail "the TRLE encoder stages the span through pixels_to_bytes" "$stray"
sites=$(grep -F '<< 4) |' <<<"$compress" || true)
[ "$(grep -c . <<<"$sites")" -eq 1 ] \
    || vocabulary_fail "rt-compress must build a TRLE code in exactly one place" "$sites"

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

echo "== trajectory baseline =="
# Every BENCH_trajectory.jsonl line must parse and carry a host identity
# `(nproc, cpu_model, rustc, profile)`, the key a new suite result finds its
# baseline by (stdlib-only script), the model without its ` @ <clock>`
# suffix; checked with the newest line as the result, then with its model
# swapped: an `AMD EPYC` result must find line 15, the one AMD line, and an
# Intel one written with its clock an Intel line, so a change of CPU never
# reads as a regression.
mkdir -p target
tail -n 1 BENCH_trajectory.jsonl > target/trajectory_newest.json
python3 tools/trajectory_baseline.py target/trajectory_newest.json >/dev/null
python3 - <<'EOF_PY'
import json, subprocess
lines = open("BENCH_trajectory.jsonl").read().splitlines()
result = json.loads(lines[-1])
for model, want in [("AMD EPYC", "AMD EPYC"),
                    ("Intel(R) Xeon(R) Processor @ 2.10GHz", "Intel(R) Xeon(R) Processor")]:
    result["host"]["cpu_model"] = model
    with open("target/trajectory_probe.json", "w") as f:
        json.dump(result, f)
    out = subprocess.run(["python3", "tools/trajectory_baseline.py", "target/trajectory_probe.json"],
                         check=True, capture_output=True, text=True).stdout.strip()
    got = json.loads(out)["host"]["cpu_model"].split(" @ ")[0]
    assert got == want, f"trajectory baseline: a {model} result got a {got} line"
    assert want != "AMD EPYC" or out == lines[14], "trajectory baseline: AMD EPYC is line 15"
EOF_PY

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

echo "== proptest fresh seed =="
# The property tests again under a seed no earlier run drew: PROPTEST_SEED
# is mixed into every test's name-derived seed (the stage above ran without
# it, replaying the pinned cases). A failure names the test, its seed and
# the case index, which is the line that keeps it in
# tests/proptest-regressions.txt; rerun with the printed PROPTEST_SEED to
# reproduce. The vendored runner's own tests ride along.
: "${PROPTEST_SEED:=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')}"
echo "PROPTEST_SEED=$PROPTEST_SEED"
cargo test -q -p proptest
PROPTEST_SEED=$PROPTEST_SEED cargo test --workspace -q

echo "== render kernel equivalence =="
# The shear-warp scanline kernels against the per-sample renderer kept in
# rt-render's test module, bit for bit, over 256 random scenes in release
# (the workspace stage above runs the same property at PROPTEST_CASES in
# debug; one scene in eight has in-slice extents past 64 voxels), plus the
# preset scenes and the rows past a pass-1 chunk of
# `kernel_equivalence_at_production_widths`, the warp alone over 256
# mostly blank intermediates (`warp_kernel_equivalence_on_sparse_images`:
# lone border pixels, `−0`, `a = 0, v ≠ 0`, NaN, ±∞ — the cases its
# occupancy rule must read as blank or as content, and a weight-0 tap on a
# NaN that the branch-free blend must add as `+0`, not as `0 · NaN`) and at
# 512² from the six golden cameras (`warp_kernel_equivalence_at_
# production_size`), each through every compiled copy of the band loop as
# well as `warp_to_screen`'s threads, the slice column map
# against its definition (`slice_columns_kernel_equivalence`: over shifts
# at binade edges every `at[c]` is the first pixel whose `⌊li⌋ ≥ c` —
# fails on a table built with `>`), the row's one `f32` stencil against
# the per-pixel `f64` blend (`stencil_kernel_equivalence_at_binade_edges`:
# every pixel of rows over those shifts and fractions within 10⁻¹⁵ of an
# integer, from the interior's first pixel and from each later one, the
# interior's last pixel and the column rule included;
# `stencil_kernel_equivalence_at_ties`: samples on `k + ½` and within 2⁻¹²
# of it, which its tie filter must send to the `f64` blend), the branch-free rounding
# against libm's at every half-integer and the `f64` either side
# (`round_to_u8_kernel_equivalence`), and each compiled copy of the row
# kernel called directly — baseline and, on a CPU with AVX2, the wide one,
# which the sweep otherwise always picks there — over the presets, the six
# golden cameras at 256² and single rows at binade-edge shifts
# (`compiled_copies_kernel_equivalence`; a CPU without AVX2 prints that it
# skipped the wide copy). The sweep has one driver, the slice-major loop,
# so a scene is one render per compiled copy; only the warp splits its rows
# over threads. Besides the `render` cells of
# tests/golden/trace_digests.txt this is the only gate on the float path.
PROPTEST_CASES=256 cargo test -q --release -p rt-render kernel_equivalence

echo "== over kernel equivalence =="
# The 8-bit `over` kernels' one branch-free span body against
# `GrayAlpha8::over`, in release, the build the benchmark runs, in each
# compiled copy called directly — baseline and, on a CPU with AVX2, the wide
# one every call otherwise picks there (a CPU without AVX2 prints that it
# skipped the wide copy): every
# (front alpha, front value, back value) triple, 2^24 merges, which also
# covers every alpha pair, through the front and the back merge of both
# entries — the wire stream (`over_{front,back}_bytes`) and the pixel slice
# (`over_{front,back}_slice`) — cut into pieces of 1 to 47 pixels so lanes
# land in whole sixteen-pixel chunks and in the tail; the
# `non_blank`/`blank_skipped`/`opaque_fast` counters of every piece against
# their definitions (`over_kernel_equivalence` — the only test that fails
# when the back merge counts `opaque` from the stream's alpha instead of its
# word, or when the slice entry loads a pixel's alpha as its value). Then
# the unpack kernel behind `Codec::decode_into` against the front merge onto
# blank in the same copy, and its counters against their definitions, over
# every 8-bit pixel in pieces of 1 to 47 (`unpack_kernel_equivalence` —
# fails when `opaque` is read off the value byte or the tail is left
# unwritten). Then `GrayAlpha`'s `f32` span kernels in each compiled copy
# against the per-pixel defaults they override (`over_each`, the oracle),
# bit for bit and all three counters: every pairing of pixels over `±0`,
# subnormals, NaN payloads, ±∞, `a > 1`, `a < 0` and ordinary values in
# either channel, front and back, stream and slice, and the unpack onto
# blank, in pieces of 1 to 47, then its blank scan with each pixel alone
# among `±0` blanks (`f32_kernel_equivalence` — fails on a kernel that
# counts blank by `a == 0.0` alone, or skips a blank source pixel). The
# workspace stage above runs all three in debug.
cargo test -q --release -p rt-imaging kernel_equivalence

echo "== blank scan equivalence =="
# The blank-slice kernel behind the tile families' content scan, in
# release: the OR of sixteen pixels' content words (`Pixel::content_word`,
# one body for every pixel type), for `GrayAlpha8` against the per-pixel
# test with a
# lone non-zero value byte, then a lone non-zero alpha byte, at every
# offset of every slice of 0 to 80 pixels, and over random sparse byte
# mixes (`blank_scan_kernel_equivalence` fails on a kernel that reads only
# the alpha byte), then both scans of rt-core against a per-pixel
# enumeration over every small uneven grid, `GrayAlpha8` and `GrayAlpha`
# on a `-0.0` background (`content_scans_match_a_per_pixel_enumeration`).
cargo test -q --release -p rt-imaging blank_scan
cargo test -q --release -p rt-core --lib content_scans_match

echo "== trle encode equivalence =="
# The TRLE encoder (two passes: the one classifier, reading every pixel
# type's content words sixteen pixels at a time and packing blank and
# all-non-blank chunks whole, straight into the message behind a patched
# code count; then one write of the payload or of the raw fallback) against
# the per-pixel oracle kept in trle.rs's test module, byte for byte, in
# release: every two-tile sequence over four classes, cut to partial tails
# and repeated into runs of 15–33 tiles, every template pair at every
# offset of the classifier's chunks, and the raw-fallback threshold — for
# `GrayAlpha8`'s byte classes, then `GrayAlpha`'s (`±0` blanks in either
# channel; a subnormal, a NaN payload or ±∞ over `±0`)
# (`trle_encode_equivalence` — fails when the classifier reads only the
# alpha channel, or reads `−0` as content). The workspace stage above runs
# it in debug.
cargo test -q --release -p rt-compress --lib trle_encode_equivalence

echo "== envelope checksum =="
# The delivery envelope's checksum (word-wise FNV-1a in eight lanes) in
# release, the build the benchmark runs: equal to a plain reference at every
# length 0..=300 and at 1 MiB + 13, every single-bit flip and the fault
# plan's `^ 0xA5` of every byte at lengths 1..=200 caught, and a trailing
# zero byte changing it; a payload's kept checksum equals the reference too
# (`envelope_checksum_contract` — the only test that fails when the lane
# loop leaves lane 7 unhashed). A payload is hashed once, a damaged copy
# afresh, and a clean in-process message by nobody (`…_hashed_…`); rt-net
# seals an unsealed frame with its payload's checksum, so the wire bytes
# are what they were (`…_sealed_…`).
cargo test -q --release -p rt-comm -p rt-net --lib -- envelope_checksum hashed sealed

echo "== render stage probe =="
# The benchmark's orbit with each stage timed on its own (slab sweeps,
# reference composite, warp), the compiled copy the sweep and the warp ran
# and a hash of its screens: one round at seed 1, whose sixteen production-
# size frames must hash to the recorded value — a bit-identity gate on both
# render kernels, on whichever copy this CPU runs.
cargo run -q --release --example render_stages -- 1 1 > target/render_stages.txt
grep -q '^screens fnv  *b2f7befc6a15930c$' target/render_stages.txt ||
    { cat target/render_stages.txt >&2; echo "render stage probe: the screens' hash moved" >&2; exit 1; }

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
# silent peer taken down under a blocked sender, a blocked sender released
# by a peer's death notice on a socket it keeps open. The both-mesh barrier test
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

echo "== trace gaps =="
# Where the traced compose of the smoke suite's `compose_tiles_tcp` run spent
# its time, rank by rank: frames, mean `core.compose_plan`, each phase's self
# time and the gap no phase covers, per frame (stdlib-only script; it fails
# unless every rank track of the trace has its row).
python3 tools/trace_gaps.py benchmark/out/trace_compose_tiles_tcp.json | tee target/trace_gaps.txt

echo "== benchmark byte identity =="
# What the smoke suite computed must be what the trajectory recorded: every
# workload's input and frame-0 hashes and its exact per-layer rows (wire
# bytes, virtual compose time, messages and `over` pixels per frame) equal
# to the baseline line tools/trajectory_baseline.py picks for this host —
# a wall-clock change may not change a byte. Skipped, saying so, on a host
# no trajectory line has measured (stdlib-only script).
python3 tools/smoke_identity.py benchmark/out/smoke.json

echo "== paired benchmark smoke =="
# tools/pairs.py, the paired parent/change comparison every performance
# claim goes through (stdlib only), on its smallest setting: HEAD against
# the working tree, one pair of one-second `pipeline_serial` runs, each side
# built offline from `git archive` (equal trees share one build). Checks the
# tool builds, runs and reports, the acceptance bound flag included; the
# numbers are no evidence.
python3 tools/pairs.py HEAD --smoke > target/pairs_smoke.txt
grep -q '^pipeline_serial  *frame_ms_p50 ' target/pairs_smoke.txt
grep -q '"over_bound": ' target/pairs_smoke.txt

echo "CI gate passed."
