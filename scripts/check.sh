#!/usr/bin/env bash
# The full local gate: formatting, lints, tests, then CLI smokes that
# compare outputs byte for byte. The workspace has no crates.io
# dependencies, so this runs offline as written.

set -euo pipefail
cd "$(dirname "$0")/.."
smoke="$(mktemp -d "${TMPDIR:-/tmp}/ytcdn-smoke.XXXXXX")"
trap 'rm -rf "$smoke"' EXIT

echo "==> cargo fmt --check" >&2
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

# In-tree determinism lint: SimRng-only simulation, no wall clocks in
# deterministic crates, ordered containers in output paths, forbid(unsafe)
# everywhere, no RNG draws under telemetry guards, no unreasoned
# unwrap()/expect() in library code, plus the syntax-aware families —
# checked decode arithmetic (OVF001/002), scoped-thread write discipline
# (CON001), no locks in deterministic crates (CON002), no wildcard arms on
# closed taxonomies (EXH001), and no noise-to-output taint (DET004). The
# committed baseline filters known findings so only NEW ones fail; it is
# empty today and should stay that way (see scripts/lint-baseline.sh). The
# SARIF report must come out as a SARIF 2.1.0 document.
echo "==> ytcdn-lint --workspace" >&2
cargo run --quiet --release -p ytcdn-lint -- --workspace \
    --baseline devtools/lint/baseline.txt --sarif-out "$smoke/lint-report.sarif"
grep -q '"version": "2.1.0"' "$smoke/lint-report.sarif" \
    || { echo "check.sh: lint --sarif-out wrote no SARIF document" >&2; exit 1; }

echo "==> cargo test" >&2
cargo test --workspace -q

# Dataset pool: the CLI must emit byte-identical traces for all five
# datasets at --jobs 1 (one after another) and --jobs <max> (concurrent).
# The in-process differential suite covers jobs ∈ {1,2,3,5,8}; this leg
# covers the CLI plumbing and whatever available_parallelism happens to
# be on this host.
echo "==> generate --jobs differential smoke (1 vs max)" >&2
max="$(nproc 2>/dev/null || echo 4)"
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- generate \
        --scale 0.002 --seed 7 --jobs "$jobs" \
        --format text --out "$smoke/logs-$jobs/"
done
for log in "$smoke"/logs-1/*.log; do
    cmp "$log" "$smoke/logs-$max/$(basename "$log")" \
        || { echo "check.sh: generate --jobs $max output differs from sequential" >&2; exit 1; }
done

# Watchtower smoke: a trace with one scheduled mutation must produce at
# least one change point (and exit 0); the JSONL stream must carry the
# per-window metrics and the detection event.
echo "==> watch smoke (mutated trace fires the change detector)" >&2
cargo run --quiet --release -p ytcdn-cli -- watch \
    --dataset EU1-FTTH --scale 0.01 --seed 5 --mutate dc-down@72:milan \
    --telemetry "$smoke/watch-events.jsonl" > "$smoke/watch.txt" 2>/dev/null \
    || { echo "check.sh: watch exited non-zero" >&2; exit 1; }
grep -q "CHANGE" "$smoke/watch.txt" \
    || { echo "check.sh: watch found no change point on a mutated trace" >&2; exit 1; }
grep -q '"event":"window_metrics"' "$smoke/watch-events.jsonl" \
    || { echo "check.sh: no window_metrics event in the JSONL stream" >&2; exit 1; }
grep -q '"event":"change_point_detected"' "$smoke/watch-events.jsonl" \
    || { echo "check.sh: no change_point_detected event in the JSONL stream" >&2; exit 1; }
# Replay fidelity: the same mutated trace written as .ytc and watched with
# --from (skipping simulation, rebuilding the world from the recorded
# provenance) must print the simulate-and-watch table exactly.
cargo run --quiet --release -p ytcdn-cli -- generate \
    --dataset EU1-FTTH --scale 0.01 --seed 5 --mutate dc-down@72:milan \
    --out "$smoke/watch.ytc" 2>/dev/null
cargo run --quiet --release -p ytcdn-cli -- watch \
    --dataset EU1-FTTH --from "$smoke/watch.ytc" > "$smoke/watch-from.txt" 2>/dev/null
cmp "$smoke/watch.txt" "$smoke/watch-from.txt" \
    || { echo "check.sh: watch --from differs from the simulate path" >&2; exit 1; }

# Analysis pipeline: repro must print byte-identical reports at --jobs 1
# (sequential index build + experiment loop) and --jobs <max> (parallel
# grouping and concurrent experiments).
echo "==> repro --jobs differential smoke (1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --jobs "$jobs" > "$smoke/repro-$jobs.txt" 2>/dev/null
done
cmp "$smoke/repro-1.txt" "$smoke/repro-$max.txt" \
    || { echo "check.sh: repro --jobs $max output differs from sequential" >&2; exit 1; }

# Geolocation pipeline: the CBG pass draws per-/24 noise streams, so the
# geo-heavy experiments (fig3's pooled radius CDFs, table3's continent
# table) must also be byte-identical at any worker count.
echo "==> repro geo byte-compare smoke (fig3,table3 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --exp fig3,table3 --jobs "$jobs" \
        > "$smoke/geo-$jobs.txt" 2>/dev/null
done
cmp "$smoke/geo-1.txt" "$smoke/geo-$max.txt" \
    || { echo "check.sh: geo experiments differ at --jobs $max vs sequential" >&2; exit 1; }

# Columnar .ytc smoke, three legs. (1) Byte stability: the encoded file is
# identical at --jobs 1 and --jobs <max> — the .ytc twin of the text
# differential above, sha256 so the transcript shows the digest. (2) Replay
# fidelity: `repro --from dataset.ytc` must print the report byte-identical
# to the simulate-in-memory run at the same scale/seed. (3) Corruption:
# a flipped byte must exit non-zero with the reason on stderr, never panic.
echo "==> .ytc columnar smoke (stability, replay, corruption)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- generate \
        --scale 0.004 --seed 7 --jobs "$jobs" \
        --out "$smoke/ds-$jobs.ytc" 2>/dev/null
done
sha1="$(sha256sum "$smoke/ds-1.ytc" | cut -d' ' -f1)"
shaN="$(sha256sum "$smoke/ds-$max.ytc" | cut -d' ' -f1)"
echo "    dataset.ytc sha256 $sha1" >&2
[ "$sha1" = "$shaN" ] \
    || { echo "check.sh: .ytc at --jobs $max differs from sequential" >&2; exit 1; }
cargo run --quiet --release -p ytcdn-cli -- repro \
    --from "$smoke/ds-1.ytc" --jobs 1 > "$smoke/repro-from.txt" 2>/dev/null \
    || { echo "check.sh: repro --from exited non-zero on a valid file" >&2; exit 1; }
cmp "$smoke/repro-1.txt" "$smoke/repro-from.txt" \
    || { echo "check.sh: repro --from output differs from the in-memory run" >&2; exit 1; }
# Chop the trailing byte: guaranteed damage (the whole-file digest no
# longer fits), whatever the file's contents.
bytes="$(stat -c%s "$smoke/ds-1.ytc" 2>/dev/null || stat -f%z "$smoke/ds-1.ytc")"
head -c "$((bytes - 1))" "$smoke/ds-1.ytc" > "$smoke/corrupt.ytc"
if cargo run --quiet --release -p ytcdn-cli -- repro \
    --from "$smoke/corrupt.ytc" > /dev/null 2> "$smoke/corrupt-err.txt"; then
    echo "check.sh: repro --from accepted a corrupt .ytc" >&2; exit 1
fi
grep -qi "checksum\|truncated\|corrupt" "$smoke/corrupt-err.txt" \
    || { echo "check.sh: corrupt .ytc rejection gave no reason on stderr" >&2; exit 1; }

# Hostile-input smoke: a Tstat log whose one flow starts in the far future
# must be a parse error naming the column (exit 1), never an abort from an
# allocation sized by the timestamp.
echo "==> analyze far-future timestamp smoke (exit 1, not an abort)" >&2
printf '#dataset EU2\n#client_ip server_ip t_start_ms t_end_ms bytes video_id resolution\n1.2.3.4 74.125.0.1 18000000000000000000 18000000000000000000 900 AAAAAAAAAAA 360p\n' \
    > "$smoke/far-future.log"
code=0
cargo run --quiet --release -p ytcdn-cli -- analyze --trace "$smoke/far-future.log" \
    > /dev/null 2> "$smoke/far-future-err.txt" || code=$?
[ "$code" = 1 ] \
    || { echo "check.sh: analyze exited $code on a far-future timestamp, want 1" >&2; exit 1; }
grep -q "t_start_ms" "$smoke/far-future-err.txt" \
    || { echo "check.sh: far-future rejection does not name t_start_ms on stderr" >&2; exit 1; }

# Peak-memory smoke: the metrics snapshot carries the process's VmHWM.
echo "==> repro --metrics-out peak RSS smoke" >&2
cargo run --quiet --release -p ytcdn-cli -- repro \
    --scale 0.05 --seed 7 --metrics-out "$smoke/metrics.json" > /dev/null 2>&1 \
    || { echo "check.sh: repro --metrics-out exited non-zero" >&2; exit 1; }
grep -q '"process.peak_rss_mb"' "$smoke/metrics.json" \
    || { echo "check.sh: no process.peak_rss_mb gauge in --metrics-out" >&2; exit 1; }

# Degenerate-input smoke: an empty capture must not panic anywhere in the
# analysis layer — the scorecard renders its unanswerable claims as
# SKIPPED rows and still exits 0.
echo "==> repro --degenerate empty smoke" >&2
cargo run --quiet --release -p ytcdn-cli -- repro \
    --scale 0.004 --seed 7 --degenerate empty --scorecard \
    > "$smoke/degenerate.txt" 2>/dev/null \
    || { echo "check.sh: repro --degenerate empty --scorecard exited non-zero" >&2; exit 1; }
grep -q "SKIPPED:" "$smoke/degenerate.txt" \
    || { echo "check.sh: degenerate scorecard has no SKIPPED rows" >&2; exit 1; }

# REPORT.md is generated, never hand-edited: regenerating it with the
# command its header documents must reproduce the committed file exactly.
echo "==> REPORT.md is fresh" >&2
cargo run --quiet --release -p ytcdn-cli -- repro \
    --markdown "$smoke/report.md" --seed 42 --scale 0.1 > /dev/null 2>&1
cmp "$smoke/report.md" REPORT.md \
    || { echo "check.sh: REPORT.md is stale; regenerate it (see its header)" >&2; exit 1; }

echo "check.sh: OK" >&2
