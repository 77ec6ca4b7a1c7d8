#!/usr/bin/env sh
# The CI gate — .github/workflows/ci.yml only installs the toolchain, runs
# this script and uploads what it leaves under target/. All dependencies
# are vendored (see vendor/README.md), so the whole pipeline works without
# network access.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== test =="
cargo test --workspace --offline -q

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== docs =="
# Every intra-doc link resolves, and none points at a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== code size and dependency edges =="
# The deletion budget, tracked like a perf number (ROADMAP "Code diet"):
# per package, the lines of every src/ file above its `#[cfg(test)]` and
# how many of them open a `pub` item, then one `total` row over crates/
# and src/ (the budget is that one row) — target/ci-results/loc.txt is
# the uploaded artifact. And the shipped binary's dependency closure
# stays what it is: the library crates and `rand`.
mkdir -p target/ci-results
for src in crates/*/src src vendor/*/src; do
    find "$src" -name '*.rs' | sort | xargs awk -v src="$src" '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test { lines++; if ($0 ~ /^[ \t]*pub /) pubs++ }
        END { printf "%-20s %6d lines %5d pub\n", src, lines, pubs }'
done | awk '{ print }
    $1 !~ /^vendor/ { lines += $2; pubs += $4; if ($1 ~ /^crates/) pkgs++ }
    END { printf "%-20s %6d lines %5d pub %3d packages\n", "total", lines, pubs, pkgs }' |
    tee target/ci-results/loc.txt
# The `pub` items no file outside their crate names (ROADMAP "Crates and
# `pub` follow the façade"): per crate, every `pub fn` / `struct` / `enum` /
# `trait` / `type` / `const` / `static` / `mod` above the `#[cfg(test)]`
# line whose name is not a word of any .rs file in the other crates, the
# crate's own `src/bin` and `tests`, src/, examples/, tests/ or
# benchmark/src — with the façade (crates/core/src/lib.rs) counted as
# outside. What is left is `pub` only because a public signature that
# something outside names exposes it. target/ci-results/pub-unused.txt is
# the list; its count is the last line of loc.txt.
for crate in crates/*; do
    find crates src examples tests benchmark/src -name '*.rs' |
        awk -v lib="$crate/src/" -v bin="$crate/src/bin/" \
            'index($0, lib) != 1 || index($0, bin) == 1 || $0 == "crates/core/src/lib.rs"' |
        xargs grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u > target/ci-results/words.txt
    find "$crate/src" -name '*.rs' ! -path "$crate/src/bin/*" | sort | xargs awk '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test && match($0, /^[ \t]*pub (const fn |unsafe fn |const |static |fn |struct |enum |trait |type |mod )[A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
            print FILENAME ":" FNR ": " name
        }' | awk 'NR == FNR { named[$0] = 1; next } !($2 in named)' target/ci-results/words.txt -
done > target/ci-results/pub-unused.txt
rm target/ci-results/words.txt
printf "%-20s %6d\n" "pub-unused" "$(wc -l < target/ci-results/pub-unused.txt)" |
    tee -a target/ci-results/loc.txt
if cargo tree --offline -p tictac -e normal |
    grep -E 'tictac-bench|serde|crossbeam|parking_lot|criterion'; then
    echo "error: the tictac package must not depend on the crates above" >&2
    exit 1
fi
# One engine path (DESIGN.md §8): the simulator keeps no metrics, so it
# names the observability crate only in its tests (the schedulers it
# depends on still take a registry), and nothing in the engine tallies;
# an observer derives `sim.*` from the trace after the run.
if cargo tree --offline -p tictac-sim -e normal --depth 1 | grep tictac-obs; then
    echo "error: tictac-sim must not depend on tictac-obs" >&2
    exit 1
fi
if [ "$(grep -ci tally crates/sim/src/engine.rs)" -ne 0 ]; then
    echo "error: crates/sim/src/engine.rs tallies metrics again" >&2
    exit 1
fi

echo "== design citations =="
# Every `DESIGN.md §N` (or `§N.M`) cited in the code, its tests and this
# script names a `## N.` heading of DESIGN.md. Each line is read joined
# to the next with its comment marker stripped, so a citation broken
# over two comment lines is checked too.
cited=$({ find crates src tests -name '*.rs' | sort; echo ci.sh; } | xargs awk '
    FNR == 1 { prev = "" }
    { line = $0; sub(/^[ \t]*(\/\/[\/!]?|#)?[ \t]*/, "", line); print prev " " line; prev = line }' |
    grep -oE 'DESIGN\.md §[0-9]+' | sed 's/.*§//' | sort -un)
for n in $cited; do
    if ! grep -q "^## $n\. " DESIGN.md; then
        echo "error: DESIGN.md §$n is cited but DESIGN.md has no '## $n.' heading" >&2
        exit 1
    fi
done

echo "== deterministic reports =="
# Zero-drift gate: every report without a wall-clock column (all but
# sched-cost, scale and exec) is regenerated in full and must be
# byte-identical to its committed copy in results/ (~3 s on two vCPUs).
reports=table1,unique-orders,fig7,fig8,fig9,fig10,fig11,fig12,fig13,ext-spread
reports=$reports,ablation-reorder,ablation-enforcement,ablation-sharding,observe,autotune
reports=$reports,faults
./target/release/repro --exp "$reports" --out target/ci-results/repro > /dev/null
for name in $(echo "$reports" | tr , ' '); do
    cmp "target/ci-results/repro/$name.txt" "results/$name.txt"
done
# Every committed artifact has a gate: a report above, a row gate (scale,
# observe: the smokes below), the run store (runs.jsonl: the run store
# smoke below) or a wall-clock measurement that drifts with the machine
# and is regenerated by hand (sched-cost, exec, scale).
row_gated=scale,observe
wall_clock=sched-cost,exec,scale
for path in results/*; do
    case "$path" in
        results/runs.jsonl) continue ;;
        *.txt) name=$(basename "$path" .txt) ;;
        *) name= ;;
    esac
    if [ -z "$name" ] || ! echo ",$reports,$row_gated,$wall_clock," | grep -qF ",$name,"; then
        echo "error: $path is in no gate (add it to a list above or delete it)" >&2
        exit 1
    fi
done

echo "== scale smoke =="
# Zero-drift gate: every row of the quick sweep (alexnet_v2 and
# resnet_v1_50 at W = 16 and 64), cut to its simulated columns — model,
# W, S, tic makespan, tac makespan, tac vs tic, E, S_pot — must appear in
# the committed results/scale.txt cut the same way. The W >= 64 rows there
# were first produced by the partitioned engine this repo no longer has
# (DESIGN.md §12), so the one engine is pinned against it on every run.
./target/release/repro --exp scale --quick --out target/ci-results
simulated() { awk '$2 ~ /^[0-9]+$/ { print $1, $2, $3, $4, $5, $6, $7, $8 }' "$1"; }
simulated results/scale.txt > target/ci-results/scale.committed
[ "$(simulated target/ci-results/scale.txt | wc -l)" -eq 4 ]
if simulated target/ci-results/scale.txt | grep -vxFf target/ci-results/scale.committed; then
    echo "error: the rows above are not in results/scale.txt" >&2
    exit 1
fi

echo "== observe smoke =="
# The same gate for results/observe.txt: every table row of the quick
# sweep (alexnet_v2, resnet_v1_50) — predicted and observed E, inversions,
# overlap — must appear in the committed file, whitespace-normalised
# because the model column is as wide as the longest name swept. The
# registry excerpt under the table counts engine events of what an
# observed session simulated (its measured iterations, DESIGN.md §14) and
# names a different model in the quick sweep, so it is not a row.
./target/release/repro --exp observe --quick --out target/ci-results
rows() { awk '$2 ~ /^[0-9.]+\/[0-9.]+\/[0-9.]+$/ { $1 = $1; print }' "$1"; }
rows results/observe.txt > target/ci-results/observe.committed
[ "$(rows target/ci-results/observe.txt | wc -l)" -eq 2 ]
if rows target/ci-results/observe.txt | grep -vxFf target/ci-results/observe.committed; then
    echo "error: the rows above are not in results/observe.txt" >&2
    exit 1
fi

echo "== golden traces =="
# Fingerprint gate: any change to simulated behavior (including the
# pinned Perfetto export bytes, fault-free and faulty) fails here, not in
# review.
cargo test --offline -q --test golden_traces
cargo test --offline -q --test perfetto_snapshot
cargo test --offline -q --test perfetto_fault_snapshot
# Again as optimised: the build the ledger and every user run, with the
# engine's `debug_assert!`s compiled out — the event queue's no-push-into-
# the-past check among them, so its proptest against a binary heap runs
# here too, beside the pump's worklists' against the sorted `Vec` they
# replaced, the graph validator's against a naive reference, the
# nanosecond rounding's against `f64::round`, the JSON float writer's
# against `format!("{}")` (10^6 cases here, 10^4 in the debug run), the
# three narrow per-op tables' against the `Option` tables they replaced
# (the schedule's bitset with its rank prefix, set op by op and built in
# bulk, the plan's four-byte rank and pairing columns, the trace's
# 16-byte slot beside its ready column), the streaming trace validator
# against the tree walk it replaced on exports and edits of them (2·10^4
# documents here, 10^3 in the debug run), the op-name writer against the
# `format!` strings at every digit-width edge, and the heap bytes per op
# a cached deployment and its schedules hold, counted by an allocator.
cargo test --offline -q --release --test golden_traces
cargo test --offline -q --release -p tictac-sim --lib event_queue_pops_what_the_heap_pops
cargo test --offline -q --release -p tictac-sim --lib worklists_drain_what_the_sorted_vec_drains
cargo test --offline -q --release -p tictac-graph --lib validation_errors_match_the_naive_reference
cargo test --offline -q --release -p tictac-trace --lib round_to_nanos
cargo test --offline -q --release -p tictac-obs --lib shortest_float_matches_display
cargo test --offline -q --release -p tictac-sched --lib schedule_matches_the_option_table
cargo test --offline -q --release -p tictac-sim --lib transfer_table_matches_the_option_columns
cargo test --offline -q --release -p tictac-trace --lib trace_slots_match_option_records
cargo test --offline -q --release -p tictac-obs --lib streaming_validator_matches_the_tree_walk
cargo test --offline -q --release -p tictac-graph --lib names_render_as_the_format_strings
cargo test --offline -q --release --test bytes_per_op
cargo test --offline -q --release --test perfetto_snapshot
cargo test --offline -q --release --test perfetto_fault_snapshot
# The engine's fault rules (agenda, loss ladder, record and barrier
# steps) in that same build, the threaded runtime's §5.1 checks, the
# metrics derived from the trace on every way a run ends, against the
# engine's own tallies over a fixed matrix, and the run-record codec: its
# round-trips, integer rule and mutation fuzz against the tree oracle,
# respelled lines against the bytes the writer wrote, and `regress`'s key
# buffer against a `format!` key per record.
cargo test --offline -q --release --test faults --test backend_equivalence \
    --test observability --test engine_metrics --test run_store
cargo test --offline -q --release -p tictac-store

echo "== threaded backend smoke =="
# Real-OS-thread runtime gate (DESIGN.md §9): the quick sim-vs-wall-clock
# comparison fails unless enforced TAC shows zero priority inversions on
# the wall clock. TICTAC_THREADS is pinned so the wall clock is not
# polluted by experiment-level fan-out on small CI boxes.
TICTAC_THREADS=2 ./target/release/repro --exp exec --quick --out target/ci-results
grep -q "priority inversions under enforced TAC (threaded): 0" target/ci-results/exec.txt

echo "== trace export =="
# Export one TAC AlexNet iteration and re-validate it from disk; the
# validator requires at least one slice in every device/channel lane.
./target/release/repro --export-trace target/trace_smoke.json
./target/release/repro --validate-trace target/trace_smoke.json

echo "== run store smoke =="
# Observability gate (DESIGN.md §13): replay the committed run-store
# corpus, append one fresh seeded session and one repro report on top of
# it, then let `runs regress` judge the new records against the stored
# history — any drift in the deterministic sim payloads fails the gate.
# target/ci-runs.jsonl is the uploaded artifact.
cp results/runs.jsonl target/ci-runs.jsonl
./target/release/tictac run alexnet_v2 --workers 2 --ps 1 --scheduler tac \
    --iterations 4 --env g --store target/ci-runs.jsonl > /dev/null
TICTAC_RUN_STORE=target/ci-runs.jsonl ./target/release/repro --exp table1 --quick > /dev/null
# Two processes appended on top of the committed lines: the id on line k
# is still r + zero-padded k-1 for the whole file.
awk -F'"' '$6 != "id" || $8 != sprintf("r%06d", NR - 1) {
        printf "target/ci-runs.jsonl line %d: id %s\n", NR, $8; bad = 1 }
    END { exit bad }' target/ci-runs.jsonl
./target/release/tictac runs list --store target/ci-runs.jsonl
./target/release/tictac runs diff --store target/ci-runs.jsonl --kind session | grep -q "zero drift"
./target/release/tictac runs diff --store target/ci-runs.jsonl --kind report | grep -q "zero drift"
./target/release/tictac runs regress --store target/ci-runs.jsonl
# A torn tail (a writer killed mid-line): every load fails naming the
# line, and an append refuses the file instead of gluing a record onto
# that line, so the copy stays byte-identical.
cp target/ci-runs.jsonl target/ci-torn.jsonl
printf '{"schema"' >> target/ci-torn.jsonl
cp target/ci-torn.jsonl target/ci-torn.before
if ./target/release/tictac runs list --store target/ci-torn.jsonl > /dev/null 2> target/ci-torn.err; then
    echo "error: runs list loaded a store with a torn tail" >&2
    exit 1
fi
grep -q "line [0-9]*:" target/ci-torn.err
./target/release/tictac run alexnet_v2 --workers 2 --ps 1 --scheduler tac \
    --iterations 4 --env g --store target/ci-torn.jsonl > /dev/null 2> target/ci-torn.err
grep -q "has no newline" target/ci-torn.err
cmp target/ci-torn.jsonl target/ci-torn.before

echo "== scenario smoke =="
# Scenario DSL gate (DESIGN.md §14): every committed example scenario
# must parse and validate, and the heterogeneous VGG-19 scenario must
# run end-to-end into a fresh store whose record carries the exact
# scenario fingerprint announced by --dry-run.
for scn in examples/scenarios/*.yml; do
    ./target/release/tictac run "$scn" --dry-run
done
scn_fp=$(./target/release/tictac run examples/scenarios/vgg19_hetero.yml --dry-run | awk 'NR==2 {print $1}')
./target/release/tictac run examples/scenarios/vgg19_hetero.yml --store target/ci-scenario.jsonl
./target/release/tictac runs show --store target/ci-scenario.jsonl | grep -q "$scn_fp"

echo "== autotune smoke =="
# Communication-granularity search gate (DESIGN.md §15): the quick
# 2-model search (AlexNet + VGG-16, reduced ladder) must complete
# deterministically and render the plain-vs-tuned table with no
# regressing row — the default config is always a candidate, so any
# negative speedup is a search bug. target/ci-results/autotune.txt is
# the uploaded artifact.
TICTAC_THREADS=2 ./target/release/repro --exp autotune --quick --out target/ci-results
grep -q "vgg_16" target/ci-results/autotune.txt
grep -q "speedup" target/ci-results/autotune.txt
if grep -q -- "-[0-9]*\.[0-9]*%" target/ci-results/autotune.txt; then
    echo "error: autotune regressed a model" >&2
    exit 1
fi

echo "== benchmark smoke =="
# The repo's benchmark (benchmark/README.md) is a workspace of its own
# that reaches this one through path dependencies: one untraced pass per
# workload with every correctness check on, so a break of the surface it
# pins fails here rather than in the benchmark pipeline. Timings are
# never judged in CI — that is `ledger compare`'s job. Building it makes
# cargo rewrite benchmark/Cargo.lock, so the committed lock file is put
# back afterwards, pass or fail, and a green run leaves the tree clean.
cp benchmark/Cargo.lock target/ci-results/benchmark-Cargo.lock
smoke=0
benchmark/run.sh --smoke || smoke=$?
cp target/ci-results/benchmark-Cargo.lock benchmark/Cargo.lock
if [ "$smoke" -ne 0 ]; then
    exit "$smoke"
fi

echo "== ci.sh: all green =="
