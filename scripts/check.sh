#!/usr/bin/env bash
# Documentation and lint gate, run locally and in CI (.github/workflows/ci.yml).
#
# Fails on:
#   - any package in the dependency graph other than the workspace
#     crates and the in-tree rand and proptest stubs,
#   - any rustfmt drift (`cargo fmt --all` fixes it),
#   - any rustdoc warning (missing docs are warnings in every crate, so
#     RUSTDOCFLAGS turns them fatal),
#   - any clippy lint across all targets,
#   - any drift of the public API surface from the checked-in
#     api-surface.txt snapshot (run `scripts/check.sh --bless-api`
#     after an *intentional* API change and commit the diff).
set -euo pipefail
cd "$(dirname "$0")/.."

# One line per `pub` item across the workspace's library sources, and
# one per `record`/`enum` table of a top-level `codec!` block (the
# tables generate public trait impls and `kind()`), normalized and
# sorted deterministically. A signature rustfmt wraps over several
# lines is joined until it closes (a trailing ` {`, `{}` or `;`, or a
# `where`; a `const`, `static` or `type` at its `=`) and loses the
# wrap's trailing comma, so re-wrapping is not drift. Each signature is
# then cut at its body's ` {`, a trailing `;` or its `where`, so
# argument and return types are part of the snapshot (a `;` inside an
# array type or a `->` inside a closure type cuts nothing). This is a
# drift detector, not a parser.
api_surface() {
    find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
        function closes(s) {
            return s ~ /( [{]|[{][}]|;)[[:space:]]*$/ || s ~ /(^|[[:space:]])where([[:space:]]|$)/
        }
        FNR == 1 { sig = ""; in_codec = 0 }
        sig != "" {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            if (line ~ /^[])>}]/) sub(/,$/, "", sig)
            else if (sig !~ /[(<[{]$/) sig = sig " "
            sig = sig line
            if (closes(line)) { print FILENAME ":" sig; sig = "" }
            next
        }
        /^[[:space:]]*pub (fn|struct|enum|trait|mod|const|type|use|static) / {
            if (closes($0) || (/=/ && !/^[[:space:]]*pub (const )?fn /)) print FILENAME ":" $0
            else sig = $0
            next
        }
        /^(crate::)?codec! [{]$/ { in_codec = 1; next }
        in_codec && /^[}]/ { in_codec = 0; next }
        in_codec && /^[[:space:]]+(record|enum) / { sub(/^[[:space:]]+/, ""); print FILENAME ": codec! " $0 }
    ' \
        | sed -E 's/:[[:space:]]+/: /; s/[[:space:]]+/ /g; s/ [{].*$//; s/[{][}]$//; s/;[[:space:]]*$//; s/ where( .*)?$//; s/[[:space:]]+$//' \
        | LC_ALL=C sort
}

if [[ "${1:-}" == "--bless-api" ]]; then
    api_surface > api-surface.txt
    echo "blessed $(wc -l < api-surface.txt) public items into api-surface.txt"
    exit 0
fi

echo "==> public API surface (vs api-surface.txt)"
if ! diff -u api-surface.txt <(api_surface); then
    echo "public API surface drifted; review the diff above and run" >&2
    echo "  scripts/check.sh --bless-api" >&2
    echo "if the change is intentional." >&2
    exit 1
fi

echo "==> dependency discipline (workspace crates, rand and proptest only)"
# The in-tree rand and proptest stubs (.verify-stubs/) are the only
# third-party packages; anything else in the resolved graph, normal,
# build or dev, is a new dependency and fails here.
allowed=$(grep -m1 -h '^name = ' crates/*/Cargo.toml | sed -E 's/^name = "(.*)"$/\1/'
    printf '%s\n' rand proptest)
extra=$(cargo tree --workspace --offline --prefix none -e normal,build,dev \
    | sed -E 's/ .*//; /^$/d' | LC_ALL=C sort -u | grep -vxF "$allowed" || true)
[[ -z "$extra" ]] \
    || { echo "packages outside the dependency discipline:" >&2; echo "$extra" >&2; exit 1; }

echo "==> rustfmt (the tree is formatted)"
cargo fmt --all -- --check

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "==> cargo clippy (warnings are errors; deprecated calls are errors)"
# `-D deprecated` keeps the workspace off anything we deprecate: an
# item marked `#[deprecated]` must lose its internal callers in the same
# change, so the next one can delete it (as the scalar
# `FitnessSpec::evaluate`/`evaluate_batch` wrappers were).
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

echo "==> replay contract (1024 generated chips in release)"
# ChipSim replays a loop's periodic steady state instead of stepping it
# (docs/SIMULATION.md). replay_matches_stepping compares every cycle,
# bit for bit, with a chip that steps every cycle. Tier-1's debug
# `cargo test` draws 64 cases; this gate draws PROPTEST_CASES=1024.
# The filter also runs the pinned mutation witnesses.
PROPTEST_CASES=1024 cargo test --release -q -p audit-cpu --test properties replay_matches_stepping

echo "==> shift-class contract (1024 generated chips in release)"
# ChipSim simulates modules whose loads are equal up to a start-time
# shift once (docs/SIMULATION.md). shifted_modules_match_unshared_stepping
# compares every cycle and counter, bit for bit, with a chip whose
# threads' programs are renamed so that nothing is shared; ~10 s at
# 1024 cases on a 2-vCPU host.
PROPTEST_CASES=1024 cargo test --release -q -p audit-cpu --test properties \
    shifted_modules_match_unshared_stepping

echo "==> self-lint (every built-in program must be clean)"
cargo run --release -q -p audit-cli --bin audit -- lint --all-builtins --deny-warnings

echo "==> examples (every example runs to a zero exit)"
# `cargo test` only compiles examples/; running them executes their own
# asserts (quickstart's kill/resume bit-identity among them).
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    cargo run --release -q -p audit-core --example "$name" > /dev/null \
        || { echo "example $name exited non-zero" >&2; exit 1; }
done

echo "==> minimized-corpus re-lint (checked-in kernels stay publishable)"
# The regression corpus under tests/fixtures/minimized/ was produced by
# `audit minimize`; every witness and kernel must survive the strictest
# lint gate, so a lint-catalog change that poisons the corpus fails
# here (minimized_corpus.rs pins the same contract in-process).
for f in crates/stressmark/tests/fixtures/minimized/*.prog; do
    cargo run --release -q -p audit-cli --bin audit -- lint "$f" --deny-warnings > /dev/null \
        || { echo "minimized corpus file $f is not lint-clean" >&2; exit 1; }
done

echo "==> Table I gate (the paper's reported numbers match the committed output)"
# The full (non-AUDIT_FAST) Table I run, ~20 s in release. Its stdout
# must equal the fixture byte for byte, so a change meant only to make
# the simulators faster cannot silently move a reported number. A change
# that means to move Table I regenerates the fixture with
#   cargo run --release -q -p audit-bench --bin table1_voltage_at_failure \
#       > crates/bench/tests/fixtures/table1.txt
# and says why in its description.
AUDIT_FAST=0 cargo run --release -q -p audit-bench --bin table1_voltage_at_failure \
    | diff -u crates/bench/tests/fixtures/table1.txt - \
    || { echo "Table I output drifted from crates/bench/tests/fixtures/table1.txt" >&2; exit 1; }

echo "==> Fig. 9 gate (the droop survey matches the committed output)"
# The full Fig. 9 run, ~20-35 s in release: 1T/2T/4T/8T aligned and
# naturally skewed runs plus three GA campaigns. Same contract and
# regeneration recipe as the Table I gate, with fig09_droop_survey and
# crates/bench/tests/fixtures/fig09.txt.
AUDIT_FAST=0 cargo run --release -q -p audit-bench --bin fig09_droop_survey \
    | diff -u crates/bench/tests/fixtures/fig09.txt - \
    || { echo "Fig. 9 output drifted from crates/bench/tests/fixtures/fig09.txt" >&2; exit 1; }

echo "==> cascade perf gate (≥2x candidate throughput at a fixed sim budget)"
# The ext_cascade_scaling bin asserts the thresholds itself — ≥2x
# candidates/sec over full-sim-only, equal-or-better final droop on the
# pinned study, bit-identical across GA thread counts — and writes the
# BENCH_cascade.json artifact (docs/SIMULATION.md). A non-zero exit
# here means the cascade's performance model regressed.
AUDIT_FAST=1 cargo run --release -q -p audit-bench --bin ext_cascade_scaling
[[ -s BENCH_cascade.json ]] \
    || { echo "ext_cascade_scaling did not write BENCH_cascade.json" >&2; exit 1; }

echo "==> shmoo gate (3x3 V/F surface, mid-plane kill/resume byte-identity)"
# The ext_shmoo bin sweeps the 3x3 grid around the Bulldozer nominal
# point, simulates a mid-plane kill by truncating its journal at a
# terminal record boundary, and asserts the resumed sweep settles the
# same surface with a byte-identical journal (docs/PARETO.md). It
# writes the BENCH_shmoo.json artifact + the gnuplot heatmap.
AUDIT_FAST=1 cargo run --release -q -p audit-bench --bin ext_shmoo
[[ -s BENCH_shmoo.json ]] \
    || { echo "ext_shmoo did not write BENCH_shmoo.json" >&2; exit 1; }

echo "==> minimize gate (ddmin strips freeloaders, mid-search kill/resume byte-identity)"
# The ext_minimize bin minimizes a padded witness (dense SimdFma core +
# NOP freeloaders), asserts the kernel is strictly smaller with ≥90% of
# the baseline droop and that only core instructions survive, simulates
# a mid-search kill at a terminal probe boundary, and asserts the
# resumed search settles the same kernel with a byte-identical journal
# (docs/ANALYSIS.md). It writes the BENCH_minimize.json artifact.
AUDIT_FAST=1 cargo run --release -q -p audit-bench --bin ext_minimize
[[ -s BENCH_minimize.json ]] \
    || { echo "ext_minimize did not write BENCH_minimize.json" >&2; exit 1; }

echo "==> fault-injection smoke (Vmin checkpoint survives a kill)"
# A crash-prone checkpointed Vmin search, killed after its first settled
# probe, must resume to the same answer and a byte-identical journal
# (docs/ROBUSTNESS.md). Exercises the full CLI path end to end.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
audit=(cargo run --release -q -p audit-cli --bin audit --)
"${audit[@]}" failure --stressmark sm-res --fast --threads 2 \
    --faults 5:crash=0.2 --retries 4 \
    --checkpoint "$smoke_dir/full.ndjson" > "$smoke_dir/full.out"
cut=$(grep -m1 -nE '"kind":"vmin_step".*"outcome":"(passed|failed)"' \
    "$smoke_dir/full.ndjson" | cut -d: -f1)
head -n "$cut" "$smoke_dir/full.ndjson" > "$smoke_dir/killed.ndjson"
"${audit[@]}" failure --resume "$smoke_dir/killed.ndjson" > "$smoke_dir/resumed.out"
grep -F "$(grep 'fails at' "$smoke_dir/full.out")" "$smoke_dir/resumed.out" > /dev/null \
    || { echo "resumed Vmin answer drifted from the uninterrupted run" >&2; exit 1; }
cmp "$smoke_dir/full.ndjson" "$smoke_dir/killed.ndjson" \
    || { echo "resumed Vmin journal is not byte-identical" >&2; exit 1; }
# Same discipline for a checkpointed shmoo sweep through the CLI,
# killed right after its first settled operating point: the resumed
# sweep must replay that point, finish the plane, and rebuild the
# byte-identical journal (docs/PARETO.md).
"${audit[@]}" shmoo --stressmark sm-res --fast --threads 2 \
    --checkpoint "$smoke_dir/shmoo.ndjson" > "$smoke_dir/shmoo.out"
cut=$(grep -m1 -n '"kind":"shmoo_point".*"outcome":"done"' \
    "$smoke_dir/shmoo.ndjson" | cut -d: -f1)
head -n "$cut" "$smoke_dir/shmoo.ndjson" > "$smoke_dir/shmoo-killed.ndjson"
"${audit[@]}" shmoo --resume "$smoke_dir/shmoo-killed.ndjson" > "$smoke_dir/shmoo-resumed.out"
cmp "$smoke_dir/shmoo.ndjson" "$smoke_dir/shmoo-killed.ndjson" \
    || { echo "resumed shmoo journal is not byte-identical" >&2; exit 1; }
# Same discipline for a checkpointed witness minimization through the
# CLI, killed right after its first terminal probe: the resumed search
# must replay that probe, settle the same kernel, and rebuild the
# byte-identical journal (docs/ANALYSIS.md). Minimize records carry no
# wall-clock telemetry, so a plain cmp is the contract.
{
    echo "# name: smoke-witness"
    for i in 0 1 2 3; do echo "simdfma f$i f12 f13 t=1.00"; done
    for _ in $(seq 1 8); do echo "nop"; done
} > "$smoke_dir/witness.prog"
"${audit[@]}" minimize "$smoke_dir/witness.prog" --fast --threads 2 \
    --checkpoint "$smoke_dir/min.ndjson" --out "$smoke_dir/kernel.prog" \
    > "$smoke_dir/min.out"
cut=$(grep -m1 -nE '"kind":"minimize_step".*"droop"' "$smoke_dir/min.ndjson" \
    | cut -d: -f1)
head -n "$cut" "$smoke_dir/min.ndjson" > "$smoke_dir/min-killed.ndjson"
"${audit[@]}" minimize --resume "$smoke_dir/min-killed.ndjson" \
    --out "$smoke_dir/kernel-resumed.prog" > "$smoke_dir/min-resumed.out"
cmp "$smoke_dir/min.ndjson" "$smoke_dir/min-killed.ndjson" \
    || { echo "resumed minimize journal is not byte-identical" >&2; exit 1; }
cmp "$smoke_dir/kernel.prog" "$smoke_dir/kernel-resumed.prog" \
    || { echo "resumed minimize kernel drifted from the uninterrupted run" >&2; exit 1; }
"${audit[@]}" lint "$smoke_dir/kernel.prog" --deny-warnings > /dev/null \
    || { echo "minimized kernel is not lint-clean" >&2; exit 1; }
# Same discipline for a faulty checkpointed GA run, killed after its
# first completed generation. Journals are compared modulo `wall_s`
# (wall-clock telemetry legitimately differs on resume, RUN_JOURNAL.md);
# the printed result must match exactly.
"${audit[@]}" generate --fast --threads 2 \
    --faults 7:noise=0.002,hang=0.05 --repeat 2 --retries 3 \
    --checkpoint "$smoke_dir/gen.ndjson" > "$smoke_dir/gen.out"
cut=$(grep -m1 -n '"kind":"generation"' "$smoke_dir/gen.ndjson" | cut -d: -f1)
head -n "$cut" "$smoke_dir/gen.ndjson" > "$smoke_dir/gen-killed.ndjson"
"${audit[@]}" generate --resume "$smoke_dir/gen-killed.ndjson" > "$smoke_dir/gen-resumed.out"
strip_wall() { sed -E 's/"wall_s":[0-9.eE+-]+/"wall_s":0/g' "$1"; }
cmp <(strip_wall "$smoke_dir/gen.ndjson") <(strip_wall "$smoke_dir/gen-killed.ndjson") \
    || { echo "resumed faulty GA journal drifted (beyond wall_s)" >&2; exit 1; }
# (The `resilience` counters are *not* compared: replayed generations
# re-simulate nothing, so the resumed run legitimately executes fewer
# evaluations.)
grep -F "$(grep 'best droop' "$smoke_dir/gen.out")" "$smoke_dir/gen-resumed.out" > /dev/null \
    || { echo "resumed faulty GA result drifted from the uninterrupted run" >&2; exit 1; }
# Killed mid-append instead: the cut lands a few bytes into the next
# line, and the resume must cut that torn line off before appending.
torn=$(( $(head -n "$cut" "$smoke_dir/gen.ndjson" | wc -c) + 7 ))
head -c "$torn" "$smoke_dir/gen.ndjson" > "$smoke_dir/gen-torn.ndjson"
"${audit[@]}" generate --resume "$smoke_dir/gen-torn.ndjson" > "$smoke_dir/gen-torn.out"
cmp <(strip_wall "$smoke_dir/gen.ndjson") <(strip_wall "$smoke_dir/gen-torn.ndjson") \
    || { echo "torn-tail resume journal drifted (beyond wall_s)" >&2; exit 1; }
grep -F "$(grep 'best droop' "$smoke_dir/gen.out")" "$smoke_dir/gen-torn.out" > /dev/null \
    || { echo "torn-tail resume result drifted from the uninterrupted run" >&2; exit 1; }

echo "==> live scrape of audit serve (shared front door, metrics before any worker)"
# `audit serve` and `audit fleet serve` share one front door and one
# dispatch pool. A scrape sent to a broker still waiting for its first
# worker is routed by its first frame to the pool's counters. One worker
# then releases the broker, and its journal joins the byte comparison
# in the distributed smoke below.
ssock="$smoke_dir/scrape.sock"
"${audit[@]}" serve --fast --threads 2 --seed 3 --listen "unix:$ssock" \
    --min-workers 1 --checkpoint "$smoke_dir/dist1.ndjson" > "$smoke_dir/dist1.out" &
serve_pid=$!
scrape=""
for _ in $(seq 1 100); do
    scrape=$("${audit[@]}" fleet metrics --connect "unix:$ssock" 2>/dev/null) && break
    sleep 0.1
done
if ! grep -qx "audit_workers 0" <<< "$scrape" || ! grep -qx "audit_queue_depth 0" <<< "$scrape"; then
    echo "audit serve scrape lacks the idle counters:" >&2
    echo "$scrape" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"${audit[@]}" work --connect "unix:$ssock" > "$smoke_dir/w0.out" 2>&1 \
    || { echo "the scrape smoke's worker exited non-zero" >&2; exit 1; }
wait "$serve_pid" || { echo "audit serve with one worker failed" >&2; exit 1; }

echo "==> distributed smoke (broker + 2 workers, byte-identical journal)"
# The same tiny generate, once in-process and once through the
# audit-net broker with two worker processes over a Unix socket. The
# determinism contract (docs/DISTRIBUTED.md): identical journal bytes
# modulo wall-clock telemetry.
sock="$smoke_dir/broker.sock"
( sleep 0.3; "${audit[@]}" work --connect "unix:$sock" > "$smoke_dir/w1.out" 2>&1 ) &
w1=$!
( sleep 0.3; "${audit[@]}" work --connect "unix:$sock" > "$smoke_dir/w2.out" 2>&1 ) &
w2=$!
"${audit[@]}" serve --fast --threads 2 --seed 3 --listen "unix:$sock" \
    --min-workers 2 --checkpoint "$smoke_dir/dist.ndjson" > "$smoke_dir/dist.out"
wait "$w1" "$w2" \
    || { echo "a distributed worker exited non-zero" >&2; exit 1; }
"${audit[@]}" generate --fast --threads 2 --seed 3 \
    --checkpoint "$smoke_dir/dist-local.ndjson" > "$smoke_dir/dist-local.out"
cmp <(strip_wall "$smoke_dir/dist.ndjson") <(strip_wall "$smoke_dir/dist-local.ndjson") \
    || { echo "distributed journal drifted from the in-process run (beyond wall_s)" >&2; exit 1; }
cmp <(strip_wall "$smoke_dir/dist1.ndjson") <(strip_wall "$smoke_dir/dist-local.ndjson") \
    || { echo "one-worker journal drifted from the in-process run (beyond wall_s)" >&2; exit 1; }
[[ -e "$smoke_dir/dist.ndjson.wal" ]] \
    && { echo "broker left its write-ahead log behind after a clean finish" >&2; exit 1; }

echo "==> chaos gate (2 workers under net faults + cross-validation, byte-identical journal)"
# The same campaign with the full threat model injected at the broker's
# wire boundary — drops, duplicates, bit-flips, stalls, byzantine lies —
# and every defense engaged (docs/ROBUSTNESS.md). The journal must still
# match the in-process run byte for byte modulo wall-clock telemetry.
csock="$smoke_dir/chaos.sock"
( sleep 0.3; "${audit[@]}" work --connect "unix:$csock" --connect-retry 25 \
    > "$smoke_dir/cw1.out" 2>&1 ) &
cw1=$!
( sleep 0.3; "${audit[@]}" work --connect "unix:$csock" --connect-retry 25 \
    > "$smoke_dir/cw2.out" 2>&1 ) &
cw2=$!
"${audit[@]}" serve --fast --threads 2 --seed 3 --listen "unix:$csock" \
    --min-workers 2 --heartbeat 100 --dead-after 2000 --verify-fraction 1.0 \
    --net-faults 3:drop=0.02,dup=0.05,corrupt=0.02,stall=0.01,lie=0.05 \
    --checkpoint "$smoke_dir/chaos.ndjson" > "$smoke_dir/chaos.out"
wait "$cw1" "$cw2" \
    || { echo "a chaos worker exited non-zero" >&2; exit 1; }
cmp <(strip_wall "$smoke_dir/chaos.ndjson") <(strip_wall "$smoke_dir/dist-local.ndjson") \
    || { echo "chaos journal drifted from the in-process run (beyond wall_s)" >&2; exit 1; }
[[ -e "$smoke_dir/chaos.ndjson.wal" ]] \
    && { echo "broker left its write-ahead log behind after a chaos finish" >&2; exit 1; }

echo "==> journal fsck smoke (corrupt interior -> repair -> resume byte-identity)"
# A checkpoint with a bit-rotted interior line must be flagged
# non-resumable, repaired to its valid prefix atomically, and then
# resume to the uninterrupted run's bytes (docs/ROBUSTNESS.md).
cp "$smoke_dir/gen.ndjson" "$smoke_dir/sick.ndjson"
rot=$(grep -m1 -n '"kind":"generation"' "$smoke_dir/sick.ndjson" | cut -d: -f1)
sed -i "${rot}s/.*/{\"kind\":\"gene<BITROT>/" "$smoke_dir/sick.ndjson"
if "${audit[@]}" journal fsck "$smoke_dir/sick.ndjson" > "$smoke_dir/fsck.out" 2>&1; then
    echo "fsck exited zero on a corrupt-interior journal" >&2; exit 1
fi
grep -q "corrupt interior" "$smoke_dir/fsck.out" \
    || { echo "fsck missed the corrupt interior" >&2; exit 1; }
"${audit[@]}" journal fsck "$smoke_dir/sick.ndjson" --repair > "$smoke_dir/fsck-repair.out"
grep -q "repaired: truncated" "$smoke_dir/fsck-repair.out" \
    || { echo "fsck --repair did not truncate" >&2; exit 1; }
"${audit[@]}" journal fsck "$smoke_dir/sick.ndjson" > "$smoke_dir/fsck-clean.out"
grep -q ": clean" "$smoke_dir/fsck-clean.out" \
    || { echo "repaired journal is not fsck-clean" >&2; exit 1; }
"${audit[@]}" generate --resume "$smoke_dir/sick.ndjson" > "$smoke_dir/sick-resumed.out"
cmp <(strip_wall "$smoke_dir/gen.ndjson") <(strip_wall "$smoke_dir/sick.ndjson") \
    || { echo "repair+resume journal drifted (beyond wall_s)" >&2; exit 1; }
grep -F "$(grep 'best droop' "$smoke_dir/gen.out")" "$smoke_dir/sick-resumed.out" > /dev/null \
    || { echo "repair+resume result drifted from the uninterrupted run" >&2; exit 1; }
# A torn tail (kill mid-append) is the benign case: fsck classifies it
# and exits zero, because --resume already drops a torn final line.
printf '{"kind":"generation","ind' >> "$smoke_dir/sick.ndjson"
"${audit[@]}" journal fsck "$smoke_dir/sick.ndjson" > "$smoke_dir/fsck-torn.out" \
    || { echo "fsck refused a benign torn tail" >&2; exit 1; }
grep -q "torn tail" "$smoke_dir/fsck-torn.out" \
    || { echo "fsck missed the torn tail" >&2; exit 1; }

echo "==> fleet bench gate (shared pool beats serial brokers, bit-identical)"
# The ext_fleet bin runs two identical campaigns serially on dedicated
# brokers and concurrently on one fleet pool, asserts both schedules
# produce bit-identical runs and journals, that the twin hit the
# cross-campaign eval cache, and that the shared pool's makespan beats
# serial by the floor margin (docs/FLEET.md). Writes BENCH_fleet.json.
AUDIT_FAST=1 cargo run --release -q -p audit-bench --bin ext_fleet
[[ -s BENCH_fleet.json ]] \
    || { echo "ext_fleet did not write BENCH_fleet.json" >&2; exit 1; }

echo "==> fleet smoke (2 tenants on a shared pool, manager kill -9 + resume)"
# Two campaigns with different seeds and fitness kinds, submitted
# concurrently to one `audit fleet serve` manager sharing two Unix-socket
# workers. The multi-tenant determinism contract (docs/FLEET.md): each
# campaign's journal is byte-identical (modulo wall-clock telemetry) to
# its solo `audit generate` run — including across a SIGKILL of the
# manager mid-campaign and a `--resume` resubmission of every tenant,
# which prefills from the per-campaign dispatch WALs.
fsock="$smoke_dir/fleet.sock"
"${audit[@]}" fleet serve --listen "unix:$fsock" --min-workers 2 --campaigns 2 \
    > "$smoke_dir/fleet.out" 2>&1 &
fleet_pid=$!
( sleep 0.3; "${audit[@]}" work --connect "unix:$fsock" > "$smoke_dir/fw1.out" 2>&1 ) &
( sleep 0.3; "${audit[@]}" work --connect "unix:$fsock" > "$smoke_dir/fw2.out" 2>&1 ) &
( sleep 0.6; "${audit[@]}" fleet submit --connect "unix:$fsock" --fast --threads 2 \
    --seed 5 --checkpoint "$smoke_dir/tenant-a.ndjson" \
    > "$smoke_dir/sub-a.out" 2>&1 ) &
( sleep 0.6; "${audit[@]}" fleet submit --connect "unix:$fsock" --fast --threads 2 \
    --seed 9 --kind ex --checkpoint "$smoke_dir/tenant-b.ndjson" \
    > "$smoke_dir/sub-b.out" 2>&1 ) &
# Kill the manager the moment both campaigns are confirmed started:
# mid-resonance or mid-GA, with dispatch WALs on disk.
for _ in $(seq 1 200); do
    started=$(grep -c "started:" "$smoke_dir/fleet.out" 2>/dev/null) || started=0
    [[ "$started" -ge 2 ]] && break
    sleep 0.05
done
[[ "$started" -ge 2 ]] \
    || { echo "fleet manager never started both campaigns" >&2; exit 1; }
kill -9 "$fleet_pid" 2>/dev/null || true
wait > /dev/null 2>&1 || true
# Second manager lineage: resume both tenants to completion.
fsock2="$smoke_dir/fleet2.sock"
"${audit[@]}" fleet serve --listen "unix:$fsock2" --min-workers 2 --campaigns 2 \
    > "$smoke_dir/fleet2.out" 2>&1 &
( sleep 0.3; "${audit[@]}" work --connect "unix:$fsock2" > "$smoke_dir/fw3.out" 2>&1 ) &
fw3=$!
( sleep 0.3; "${audit[@]}" work --connect "unix:$fsock2" > "$smoke_dir/fw4.out" 2>&1 ) &
fw4=$!
( sleep 0.6; "${audit[@]}" fleet submit --connect "unix:$fsock2" \
    --resume "$smoke_dir/tenant-a.ndjson" > "$smoke_dir/res-a.out" 2>&1 ) &
ra=$!
( sleep 0.6; "${audit[@]}" fleet submit --connect "unix:$fsock2" \
    --resume "$smoke_dir/tenant-b.ndjson" > "$smoke_dir/res-b.out" 2>&1 ) &
rb=$!
wait "$ra" "$rb" \
    || { echo "a resumed fleet submission failed" >&2; exit 1; }
wait "$fw3" "$fw4" \
    || { echo "a fleet worker exited non-zero" >&2; exit 1; }
# Each tenant's journal matches its solo run, byte for byte mod wall_s.
"${audit[@]}" generate --fast --threads 2 --seed 5 \
    --checkpoint "$smoke_dir/solo-a.ndjson" > "$smoke_dir/solo-a.out"
"${audit[@]}" generate --fast --threads 2 --seed 9 --kind ex \
    --checkpoint "$smoke_dir/solo-b.ndjson" > "$smoke_dir/solo-b.out"
cmp <(strip_wall "$smoke_dir/tenant-a.ndjson") <(strip_wall "$smoke_dir/solo-a.ndjson") \
    || { echo "tenant A journal drifted from its solo run (beyond wall_s)" >&2; exit 1; }
cmp <(strip_wall "$smoke_dir/tenant-b.ndjson") <(strip_wall "$smoke_dir/solo-b.ndjson") \
    || { echo "tenant B journal drifted from its solo run (beyond wall_s)" >&2; exit 1; }
# Completed campaigns leave no dispatch WALs behind.
leftover=$(ls "$smoke_dir"/*.wal 2>/dev/null || true)
[[ -n "$leftover" ]] \
    && { echo "fleet resume left dispatch WALs behind: $leftover" >&2; exit 1; }

echo "OK"
