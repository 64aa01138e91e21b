#!/usr/bin/env bash
# Tier-1 verification gates for the workspace. CI runs these same
# subcommands as separate jobs; run `./verify.sh` locally before pushing.
# Requires only the stable Rust toolchain (all third-party dependencies
# are vendored under vendor/ — no network needed).
#
# Usage:
#   ./verify.sh             # lint + test + vector-width (the tier-1 gate)
#   ./verify.sh lint        # rustfmt + clippy + warning-free rustdoc + the
#                           # library unwrap/expect ratchet + no caller of
#                           # the `.sparse()` shim + no clock in the engine
#                           # + no serde derive + one baseline registry
#                           # + sorted-vector engine stores + one
#                           # observation path out of the engine + hop
#                           # costs priced at admission + one bench
#                           # binary + no test-only code in the
#                           # library crates + one process per
#                           # sweep (fast feedback)
#   ./verify.sh test        # release build + full test pyramid (incl. the
#                           # slot-equivalence golden suite, run at both
#                           # full and FAST=1 horizons); ends with the
#                           # seconds each stage took (not gated)
#   ./verify.sh vector-width# on an AVX-512 host building with the flags of
#                           # .cargo/config.toml: nn's release assembly
#                           # must use 512-bit registers, hold no gather
#                           # or scatter instruction and hold a packed
#                           # vsqrtps (Adam's loop vectorized); prints
#                           # "skipped" anywhere else
#   ./verify.sh bench-smoke # FAST=1 run of every figure and table
#                           # (`bench figures`, one process); writes
#                           # CSV/JSON artifacts into $RESULTS_DIR,
#                           # runs the search smoke below, and
#                           # prints the markdown digest of the
#                           # BENCH_*.json reports (rates are measured by
#                           # perf/run.sh, not gated here); ends with the
#                           # build and figure-loop seconds (not gated)
#   ./verify.sh bench-full  # the same suite at full resolution (no FAST);
#                           # slow — CI exposes it as a manual
#                           # workflow_dispatch job
#   ./verify.sh search-smoke# FAST=1 manifest-search determinism check:
#                           # runs the tiny checked-in `smoke` manifest
#                           # search twice (second run on a single worker
#                           # thread) and byte-diffs the two
#                           # BENCH_search_smoke.json outputs
#   ./verify.sh perf-smoke  # the standalone perf/ benchmark package's own
#                           # smoke test (every workload at --quick
#                           # sizes): a library API change that breaks
#                           # `perfbench` fails here, not in acceptance
set -euo pipefail
cd "$(dirname "$0")"

# The one binary: every figure, table and tool is `$BENCH <name> [args]`.
BENCH="${CARGO_TARGET_DIR:-target}/release/bench"

# `timed <label> <command...>` runs the command and keeps its seconds for
# the line `test` and `bench-smoke` end with (information, not a gate).
TIMINGS=()
timed() {
  local label="$1" start="$EPOCHREALTIME"
  shift
  "$@"
  TIMINGS+=("$label $(awk -v s="$start" -v e="$EPOCHREALTIME" 'BEGIN { printf "%.1f", e - s }') s")
}

lint() {
  echo "==> cargo fmt --all --check"
  cargo fmt --all --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace --offline"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

  unwrap_ratchet
  sparse_shim_unused
  engine_reads_no_clock
  no_serde_derives
  one_baseline_registry
  engine_stores_are_sorted
  one_observation_path
  hop_costs_fixed_at_admission
  one_bench_binary
  library_ships_what_runs
  one_process_per_sweep
}

# `.unwrap()` / `.expect(` occurrences in `crates/*/src` and `src/`
# (in-file unit tests count). The number only goes down: above it the lint
# fails, below it prints the number to record here.
UNWRAP_EXPECT_MAX=129

unwrap_ratchet() {
  echo "==> unwrap/expect ratchet (library sources, max $UNWRAP_EXPECT_MAX)"
  local count
  count=$(grep -rEo --include='*.rs' '\.unwrap\(\)|\.expect\(' crates/*/src src | grep -c .)
  if [ "$count" -gt "$UNWRAP_EXPECT_MAX" ]; then
    echo "library unwrap/expect count rose: $count > $UNWRAP_EXPECT_MAX" \
      "(return a Result, or remove as many elsewhere)" >&2
    return 1
  elif [ "$count" -lt "$UNWRAP_EXPECT_MAX" ]; then
    echo "library unwrap/expect count fell to $count: record UNWRAP_EXPECT_MAX=$count in verify.sh"
  fi
}

# `RunOptions::sparse()` does nothing and stays only because perf/ (which
# only a benchmark PR may edit) calls it. No caller elsewhere, so that PR
# can delete it without a search.
sparse_shim_unused() {
  echo "==> no .sparse() caller outside perf/"
  if grep -rn --include='*.rs' '\.sparse()' crates src tests examples; then
    echo "RunOptions::sparse() is a no-op kept for perf/ alone: drop the call" >&2
    return 1
  fi
}

# The engine's only clock is the simulation's: a run is a pure function of
# its inputs, and decision time is measured outside it (exper's decision
# timer, for the cells that keep it). No wall-clock type may come back into
# core::sim or the metrics it folds into.
engine_reads_no_clock() {
  echo "==> no wall clock in crates/core/src/sim/ or metrics.rs"
  if grep -rnE 'Instant|SystemTime|std::time' crates/core/src/sim crates/core/src/metrics.rs; then
    echo "core::sim and metrics read no wall clock: time decisions in exper's timer" >&2
    return 1
  fi
}

# vendor/serde_derive expands to nothing, so a derive would claim a round
# trip that does not exist. JSON is read through serde_json::FromJson and
# written by explicit `Value` builders; vendor/serde and vendor/serde_derive
# stay only because perf/Cargo.lock lists them.
no_serde_derives() {
  echo "==> no serde derive, attribute or import"
  if grep -rnE --include='*.rs' '\b(Serialize|Deserialize)\b|#\[serde\(|use serde\b' \
    crates src tests examples; then
    echo "serde's derives are no-ops here: implement serde_json::FromJson instead" >&2
    return 1
  fi
}

# mano::baselines::baseline is the one binding of a baseline name to the
# policy it builds; grid fingerprints trust a column label to name one
# construction. The figure binaries and the manifest layer build baselines
# by name through it and never name a baseline type themselves.
one_baseline_registry() {
  echo "==> baselines built through the registry in bench and exper::manifest"
  if grep -rnwE --include='*.rs' \
    'RandomPolicy|FirstFitPolicy|BestFitPolicy|WorstFitPolicy|GreedyLatencyPolicy|GreedyCostPolicy|CloudOnlyPolicy|WeightedGreedyPolicy' \
    crates/bench/src crates/exper/src/manifest.rs; then
    echo "build baselines by name: mano::baselines::baseline / roster," \
      "ExperimentGrid::baselines or exper::manifest::baseline_factory" >&2
    return 1
  fi
}

# The engine's id-keyed stores (live instances, active flows, the
# telemetry sink's open records) are `sfc::idmap::IdMap`s: sorted vectors,
# which at the few hundred live entries a run holds beat a B-tree's node
# allocations and pointer chasing. Any `BTreeMap<` or `BTreeMap::` there
# fails, whatever its key type or if it is inferred. The two slot-keyed
# schedules are not id-keyed stores and stay B-trees; they are exempt by
# their exact declarations, so no other line that names them is.
engine_stores_are_sorted() {
  echo "==> no id-keyed BTreeMap in core::sim, core::telemetry or sfc::instance"
  if grep -rnE 'BTreeMap(<|::)' crates/core/src/sim crates/core/src/telemetry.rs \
    crates/sfc/src/instance.rs |
    grep -vE ':[0-9]+:    event_timeline: BTreeMap<u64, Vec<NetworkEvent>>,$' |
    grep -vE ':[0-9]+:        let mut arrivals_by_slot: BTreeMap<u64, Vec<Request>> = BTreeMap::new\(\);$'; then
    echo "id-keyed engine stores are sfc::idmap::IdMap, not BTreeMap" >&2
    return 1
  fi
}

# Every outcome leaves the engine through `Simulation::note`
# (crates/core/src/sim/note.rs): it alone feeds the telemetry sink's hooks
# and the metrics collector's pushes, so the two folds see one stream. Such
# a call anywhere else in core::sim fails; the body of `fn note` is told
# by rustfmt's indentation (its signature, and the `    }` closing it).
one_observation_path() {
  echo "==> sink hooks and metrics pushes in core::sim only inside Simulation::note"
  if awk '
    FNR == 1 { in_note = 0 }
    /^    pub\(super\) fn note\(/ { in_note = 1 }
    !in_note && /\.on_(requested|admitted|rejected|completed|disrupted|slot_billed)\(|push_slot\(|push_admission_latency\(/ {
      print FILENAME ":" FNR ":" $0
      found = 1
    }
    in_note && /^    }$/ { in_note = 0 }
    END { exit !found }
  ' crates/core/src/sim/*.rs; then
    echo "note an outcome through Simulation::note, not a sink hook or a metrics push" >&2
    return 1
  fi
}

# An active flow carries each hop's traffic cost, priced once when it is
# admitted (`admit_flow`); billing and departures add those up. So in
# core::sim a traffic price is taken only there, by the candidate build
# (`candidates_into`, which prices hops not yet taken), and by the debug
# invariant checker (`check_invariants_with`), which takes it afresh to
# compare. A function is told by rustfmt's indentation, as above.
hop_costs_fixed_at_admission() {
  echo "==> traffic prices in core::sim only in admit_flow, candidates_into and the checker"
  if awk '
    FNR == 1 { fname = "" }
    match($0, /^    (pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
      fname = substr($0, RSTART, RLENGTH)
      sub(/.*fn /, "", fname)
    }
    /traffic_cost_usd\(/ && fname != "admit_flow" && fname != "candidates_into" &&
      !(FILENAME ~ /\/invariants\.rs$/ && fname == "check_invariants_with") {
      print FILENAME ":" FNR ": in " (fname == "" ? "no function" : "fn " fname) ": " $0
      found = 1
    }
    /^    }$/ { fname = "" }
    END { exit !found }
  ' crates/core/src/sim/*.rs; then
    echo "hop costs are priced once, in admit_flow: read ActiveFlow::hops instead" >&2
    return 1
  fi
}

# A release build optimises the whole stack once per binary target (thin
# LTO, one codegen unit), so the figures, tables and tools are subcommands
# of one `bench` binary (bench::figures::REGISTRY). Nothing in crates/,
# verify.sh or .github/ may run a binary of another name.
one_bench_binary() {
  echo "==> one binary target in the bench package, and nothing runs another"
  local bins
  bins=$(cargo metadata --no-deps --format-version 1 --offline |
    grep -oE '"kind":\["bin"\][^}]*"src_path":"[^"]*/crates/bench/[^"]*"' |
    grep -oE '"name":"[^"]*"' | cut -d'"' -f4 | tr '\n' ' ') || true
  if [ "$bins" != "bench " ]; then
    echo "the bench package must have one binary target, bench; found: ${bins:-none}" \
      "(add a subcommand to bench::figures::REGISTRY instead)" >&2
    return 1
  fi
  if grep -rnoE 'CARGO_BIN_EXE_[A-Za-z0-9_-]+|target/release/[A-Za-z0-9_-]+' crates verify.sh .github |
    grep -vE ':(CARGO_BIN_EXE_bench|target/release/bench)$'; then
    echo "run figures and tools as subcommands: target/release/bench <name>, CARGO_BIN_EXE_bench" >&2
    return 1
  fi
}

# The library crates ship what the system runs. The validation
# environments, their episode loop and the gradient checker are test code
# (crates/rl/tests/support/, crates/nn/tests/support/), and the tabular agent
# and RMSProp, which nothing trained with, are gone, as is the checker's
# single-parameter hook (it perturbs through a one-hot SGD step). None may
# come back under crates/*/src.
library_ships_what_runs() {
  echo "==> no test-only module, environment impl, RMSProp or perturbation hook in crates/*/src"
  local found=0
  if grep -rnE --include='*.rs' \
    '\bmod (toy|trainer|qtable|gradcheck)\b|impl .*Environment for|RmsProp|perturb_parameter' \
    crates/*/src; then
    echo "validation environments, trainers and gradient checks are test code:" \
      "put them under crates/<crate>/tests/support/" >&2
    found=1
  fi
  # Every network the system trains is a ReLU MLP with He-uniform weights
  # under the Huber TD loss and a linear (or constant) epsilon, trained
  # through one workspace pipeline; the other variants and the
  # allocate-per-call training passes are gone.
  echo "==> one network shape and one training pipeline in crates/*/src"
  if grep -rnE --include='*.rs' \
    'TrainableMlp|LeakyRelu|Activation::(Tanh|Sigmoid)|XavierUniform|Loss::Mse|Exponential \{|fn train_batch|fn drain_gradients' \
    crates/*/src; then
    echo "nn and rl ship the configuration the system sets: ReLU hidden layers," \
      "He-uniform init, Huber loss, linear or constant epsilon, workspace passes" >&2
    found=1
  fi
  return "$found"
}

# A sweep's grid runs on exper::pool's threads inside one process, with
# byte identity across thread counts. Sharding it over child processes ran
# at 0.62-1.02x of that on two cores (docs/sweep.md), so nothing in bench
# or exper spawns a process, and the three retired subcommands stay gone.
one_process_per_sweep() {
  echo "==> no process spawning in bench or exper, no sweep process tools"
  local found=0
  if grep -rn --include='*.rs' 'process::Command' crates/bench/src crates/exper/src; then
    found=1
  fi
  # The pattern's own text ("sweep_(") does not match it.
  if grep -rnE 'sweep_(drive|worker|merge)' crates src verify.sh .github; then
    found=1
  fi
  if [ "$found" -ne 0 ]; then
    echo "a sweep runs in one process: run its grid on exper::pool's threads" \
      "(ExperimentGrid::run), not in child processes" >&2
    return 1
  fi
}

run_tests() {
  echo "==> cargo test -q"
  cargo test -q

  # The slot-equivalence golden suite runs inside the full pyramid above;
  # run it again under FAST=1 so both horizon resolutions of the
  # slot-loop-vs-event-queue contract stay green (FAST trims the
  # scenarios' horizons, which shifts which slots carry events).
  echo "==> FAST=1 cargo test -q -p mano --test event_slot_equivalence"
  FAST=1 cargo test -q -p mano --test event_slot_equivalence
}

test_() {
  echo "==> cargo build --release"
  timed "release build" cargo build --release

  echo "==> cargo test --no-run -q"
  timed "test build" cargo test --no-run -q

  timed "test run" run_tests
}

# .cargo/config.toml asks for 512-bit vectors where the host has them
# (`-prefer-256-bit`): nn's strip kernel is sized for 8 zmm accumulators. The
# flag is an LLVM tuning feature rustc passes through unchecked, so a
# toolchain that renames or drops it would fall back to 256 bits without a
# word, and the only symptom would be a slower benchmark. Look at the code
# instead. An environment RUSTFLAGS replaces the config file's flags
# wholesale (CI does that), and then there is nothing to check.
vector_width() {
  echo "==> vector width of nn's release build"
  if ! grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    echo "vector-width: skipped (host does not advertise avx512f)"
    return
  fi
  if [ -n "${RUSTFLAGS+set}" ]; then
    echo "vector-width: skipped (RUSTFLAGS is set and replaces .cargo/config.toml's flags)"
    return
  fi
  # Its own target directory, emptied first: cargo does not re-emit an
  # assembly file that was deleted, nor delete one from other flags (a few
  # seconds: nn depends on the vendored rand and serde only). LTO off: under
  # the release profile's thin LTO cargo compiles a library with
  # `-C linker-plugin-lto`, and its assembly is then the pre-link pipeline,
  # before the loop vectorizer has run, so it could show neither a gather
  # nor a packed square root. Without LTO the library gets the whole
  # pipeline, the one the LTO step runs on it when a binary links it.
  local dir="${CARGO_TARGET_DIR:-target}/vector-width"
  rm -rf "$dir"
  CARGO_PROFILE_RELEASE_LTO=off cargo rustc --release -p nn --lib --target-dir "$dir" -- --emit asm
  local lines
  lines=$(cat "$dir"/release/deps/nn-*.s | grep -c '%zmm[0-9]') || true
  if [ "$lines" -eq 0 ]; then
    echo "nn's release assembly holds no zmm operand on an avx512f host:" \
      "-prefer-256-bit (.cargo/config.toml) no longer reaches the code" >&2
    return 1
  fi
  # The same compile mode turns a loop over a transposed operand into a
  # gather and a scatter per contraction step (.cargo/config.toml,
  # docs/perf.md): that is why `aᵀ·b` and `a·bᵀ` pack their operand
  # row-major. No gather or scatter may come back into nn.
  local gathers
  gathers=$(cat "$dir"/release/deps/nn-*.s | grep -cE '^\s+v(p?gather|p?scatter)') || true
  if [ "$gathers" -ne 0 ]; then
    cat "$dir"/release/deps/nn-*.s | grep -E '^\s+v(p?gather|p?scatter)' | sort | uniq -c >&2
    echo "nn's release assembly holds $gathers gather/scatter instructions:" \
      "a loop walks a strided operand (a transposed product, a tile" \
      "transpose, a fill of tagged elements) instead of whole rows" >&2
    return 1
  fi
  # Adam's update (`Optimizer::update`) is nn's one square root over a
  # slice, and its divisions and root are most of a learn step's optimizer
  # time: a loop that falls back to scalar code leaves no packed vsqrtps.
  local roots
  roots=$(cat "$dir"/release/deps/nn-*.s | grep -cE '^\s+vsqrtps\s.*%[yz]mm') || true
  if [ "$roots" -eq 0 ]; then
    echo "nn's release assembly holds no packed (ymm/zmm) vsqrtps:" \
      "Adam's update loop is no longer vectorized" >&2
    return 1
  fi
  echo "vector-width: $lines lines of nn's release assembly use zmm registers," \
    "none a gather or scatter; $roots packed vsqrtps"
}

run_figures() {
  echo "==> cargo build --release -p bench"
  timed "release build" cargo build --release -p bench

  echo "==> bench figures (FAST=${FAST:-0} -> $RESULTS_DIR)"
  timed "figure loop" "$BENCH" figures >/dev/null

  echo "==> artifacts in $RESULTS_DIR:"
  ls -l "$RESULTS_DIR"
  # The suite must leave at least one machine-readable report, the
  # resilience sweep must have produced its report, and so must the fig13
  # metro-scale streaming sweep (requests/sec + peak heap across the
  # 1x→100x horizon growth).
  ls "$RESULTS_DIR"/BENCH_*.json >/dev/null
  ls "$RESULTS_DIR"/BENCH_resilience.json >/dev/null
  ls "$RESULTS_DIR"/BENCH_metro.json >/dev/null
}

# Byte-identity check for the manifest search: the checked-in two-axis
# `smoke` manifest searched twice — the second run pinned to one worker
# thread — must write byte-identical BENCH_search_smoke.json documents.
# This is the successive-halving determinism contract (index-keyed
# reduction, seeded expansion) pinned on the on-disk artifact.
run_search_smoke() {
  echo "==> cargo build --release -p bench"
  cargo build --release -p bench

  echo "==> search: smoke manifest (reference run)"
  "$BENCH" search_drive smoke
  cp "$RESULTS_DIR/BENCH_search_smoke.json" "$RESULTS_DIR/BENCH_search_smoke.reference.json"

  echo "==> search: smoke manifest again (EXPER_THREADS=1)"
  EXPER_THREADS=1 "$BENCH" search_drive smoke

  echo "==> search: byte-diff second run vs reference"
  cmp "$RESULTS_DIR/BENCH_search_smoke.reference.json" "$RESULTS_DIR/BENCH_search_smoke.json"
  rm -f "$RESULTS_DIR/BENCH_search_smoke.reference.json"
}

# perf/ is its own package (empty [workspace], its own target dir), so
# the workspace gates above never compile it.
perf_smoke() {
  echo "==> cargo test --offline -q --manifest-path perf/Cargo.toml"
  cargo test --offline -q --manifest-path perf/Cargo.toml
}

search_smoke() {
  export FAST=1
  export RESULTS_DIR="${RESULTS_DIR:-results}"
  run_search_smoke
}

bench_smoke() {
  export FAST=1
  export RESULTS_DIR="${RESULTS_DIR:-results}"
  run_figures

  # The search smoke ahead of the summary: BENCH_search_smoke.json lands
  # in $RESULTS_DIR so the summary's search digest (and the
  # fingerprint-drift ⚠) covers a fresh document.
  run_search_smoke

  echo "==> bench summary (markdown)"
  "$BENCH" summary
}

bench_full() {
  # Full-resolution on-demand run of the figure suite: no FAST, its own
  # results dir.
  unset FAST
  export RESULTS_DIR="${RESULTS_DIR:-results-full}"
  run_figures

  echo "==> bench summary (markdown)"
  "$BENCH" summary
}

case "${1:-all}" in
  lint) lint ;;
  test) test_ ;;
  bench-smoke) bench_smoke ;;
  bench-full) bench_full ;;
  search-smoke) search_smoke ;;
  perf-smoke) perf_smoke ;;
  vector-width) vector_width ;;
  all)
    lint
    test_
    vector_width
    ;;
  *)
    echo "usage: $0 [lint|test|vector-width|bench-smoke|bench-full|search-smoke|perf-smoke|all]" >&2
    exit 2
    ;;
esac

if [ "${#TIMINGS[@]}" -gt 0 ]; then
  printf -v line '%s, ' "${TIMINGS[@]}"
  echo "==> wall clock (not gated): ${line%, }"
fi
echo "verify.sh: ${1:-all} gates passed"
