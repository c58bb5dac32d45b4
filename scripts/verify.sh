#!/usr/bin/env bash
# Tier-1 verification for the ARO-PUF reproduction workspace.
#
# Runs the release build, the full test suite, and clippy with warnings
# denied. The workspace has no network dependencies (rand / proptest /
# criterion resolve to vendored path crates), so everything is forced
# offline to fail fast if a registry dependency ever sneaks back in.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package (benchmark/, its own workspace) calls into the
# crates' public API; its tests fail when a crate change breaks a call.
echo "==> cargo test (benchmark package)"
cargo test --offline --manifest-path benchmark/Cargo.toml

# Bench smoke: run each microbenchmark once (the vendored criterion runs a
# single iteration when invoked without `--bench`), proving the bench
# harness still compiles and executes. Full timing comparisons live in
# scripts/bench_check.sh, which warns rather than fails.
echo "==> bench smoke (one iteration per microbenchmark)"
cargo test -q -p aro-bench --benches

# Chaos smoke: the quick reproduction must survive an injected-fault run.
# Exit 0 (all experiments completed under faults) and exit 3 (degraded
# mode: survivors reported plus a failure table) are both acceptable;
# anything else — a panic escaping the harness, a total failure — fails
# verification. See docs/ROBUSTNESS.md.
echo "==> chaos smoke (repro --quick --faults smoke)"
set +e
./target/release/repro --quick --quiet --faults smoke
chaos=$?
set -e
if [[ "$chaos" -ne 0 && "$chaos" -ne 3 ]]; then
    echo "verify: chaos smoke exited $chaos (expected 0 or 3)" >&2
    exit 1
fi
echo "chaos smoke exit: $chaos"

# Lifecycle smoke: the self-healing refresh experiment must complete (or
# degrade honestly) under a quarter-rate storm — the configuration its
# headline claim is quoted at. See docs/ROBUSTNESS.md ("Self-healing key
# lifecycle").
echo "==> lifecycle smoke (repro --quick --faults storm@0.25 exp16)"
set +e
./target/release/repro --quick --quiet --faults storm@0.25 exp16
lifecycle=$?
set -e
if [[ "$lifecycle" -ne 0 && "$lifecycle" -ne 3 ]]; then
    echo "verify: lifecycle smoke exited $lifecycle (expected 0 or 3)" >&2
    exit 1
fi
echo "lifecycle smoke exit: $lifecycle"

# Ledger smoke: the checkpoint/resume contract, end to end on the real
# binary. Run two experiments with a fresh ledger but "interrupt" after
# the first (by only asking for it), resume the same ledger for both, and
# require the concatenated stdout to be byte-identical to one
# uninterrupted run. See docs/OBSERVABILITY.md ("Run ledger & resume").
echo "==> ledger smoke (interrupt, resume, byte-compare)"
ledger_dir="$(mktemp -d /tmp/aro-verify-ledger.XXXXXX)"
trap 'rm -rf "$ledger_dir"' EXIT
./target/release/repro --quick exp1 exp3 > "$ledger_dir/fresh.md"
./target/release/repro --quick exp1 --ledger "$ledger_dir/run.ledger" > /dev/null
./target/release/repro --quick exp1 exp3 --resume "$ledger_dir/run.ledger" \
    > "$ledger_dir/resumed.md"
if ! cmp -s "$ledger_dir/fresh.md" "$ledger_dir/resumed.md"; then
    echo "verify: resumed stdout differs from an uninterrupted run" >&2
    diff "$ledger_dir/fresh.md" "$ledger_dir/resumed.md" | head -20 >&2
    exit 1
fi
grep -c '"event":"experiment"' "$ledger_dir/run.ledger" | {
    read -r n
    if [[ "$n" -ne 2 ]]; then
        echo "verify: expected 2 experiment records (exp1 + fresh exp3), got $n" >&2
        exit 1
    fi
}
echo "ledger smoke: resumed run byte-identical to fresh run"

# Health smoke: the fleet-health observatory, end to end. A quick capture
# must render the deterministic health tables identically at 1 and 4
# worker threads, and the trace export must be JSON a Chrome-trace viewer
# would accept. See docs/OBSERVABILITY.md ("Fleet health & streaming
# statistics" and "Trace export").
echo "==> health smoke (report health determinism + report trace)"
health_dir_a="$ledger_dir/health_a"
health_dir_b="$ledger_dir/health_b"
mkdir -p "$health_dir_a" "$health_dir_b"
./target/release/repro --quick exp2 --threads 1 --quiet \
    --telemetry "$health_dir_a/t.jsonl" --ledger "$health_dir_a/l.jsonl"
./target/release/repro --quick exp2 --threads 4 --quiet \
    --telemetry "$health_dir_b/t.jsonl" --ledger "$health_dir_b/l.jsonl"
./target/release/repro report health "$health_dir_a/t.jsonl" "$health_dir_a/l.jsonl" \
    > "$ledger_dir/health_1.md"
./target/release/repro report health "$health_dir_b/t.jsonl" "$health_dir_b/l.jsonl" \
    > "$ledger_dir/health_4.md"
if ! cmp -s "$ledger_dir/health_1.md" "$ledger_dir/health_4.md"; then
    echo "verify: report health differs between --threads 1 and 4" >&2
    diff "$ledger_dir/health_1.md" "$ledger_dir/health_4.md" | head -20 >&2
    exit 1
fi
if ! grep -q "Fleet health" "$ledger_dir/health_1.md"; then
    echo "verify: report health produced no fleet-health table" >&2
    exit 1
fi
./target/release/repro report trace "$health_dir_a/t.jsonl" > "$ledger_dir/trace.json"
python3 - "$ledger_dir/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace export carried no events"
assert any(e.get("ph") == "X" for e in events), "no complete span events"
PY
echo "health smoke: deterministic tables + valid Chrome trace"

# Serve smoke: the fleet authentication service must survive a
# quarter-rate storm (exit 0, or 3 if it honestly ends degraded), and
# the serve-bench report — simulated latencies included — must be
# byte-identical at 1 and 4 worker threads under a half storm. See
# docs/ROBUSTNESS.md ("Fleet authentication service").
echo "==> serve smoke (exp18 under storm@0.25 + serve-bench thread determinism)"
set +e
./target/release/repro --quick --quiet --faults storm@0.25 exp18
serve=$?
set -e
if [[ "$serve" -ne 0 && "$serve" -ne 3 ]]; then
    echo "verify: serve smoke exited $serve (expected 0 or 3)" >&2
    exit 1
fi
echo "serve smoke exit: $serve"
serve_dir="$ledger_dir/serve"
mkdir -p "$serve_dir"
set +e
./target/release/repro --quick --faults storm@0.5 --threads 1 serve-bench \
    > "$serve_dir/bench_1.md"
serve_t1=$?
./target/release/repro --quick --faults storm@0.5 --threads 4 serve-bench \
    > "$serve_dir/bench_4.md"
serve_t4=$?
set -e
for code in "$serve_t1" "$serve_t4"; do
    if [[ "$code" -ne 0 && "$code" -ne 3 ]]; then
        echo "verify: serve-bench exited $code (expected 0 or 3)" >&2
        exit 1
    fi
done
if [[ "$serve_t1" -ne "$serve_t4" ]]; then
    echo "verify: serve-bench exit codes differ between --threads 1 and 4" >&2
    exit 1
fi
if ! cmp -s "$serve_dir/bench_1.md" "$serve_dir/bench_4.md"; then
    echo "verify: serve-bench differs between --threads 1 and 4" >&2
    diff "$serve_dir/bench_1.md" "$serve_dir/bench_4.md" | head -20 >&2
    exit 1
fi
echo "serve smoke: serve-bench byte-identical at 1 and 4 threads"

# Replica smoke: the N-way replicated enrollment store, end to end on
# the real binary. The --replicas flag must reject nonsense with a
# usage error (exit 2), a full storm with replication on must end
# honestly (exit 0, or 3 when the fleet degrades) with zero false
# accepts, and the replicated serve-bench report — quorum reads,
# scrub repairs, replica-hop latencies included — must stay
# byte-identical at 1 and 4 worker threads. See docs/ROBUSTNESS.md
# ("Replicated enrollment store").
echo "==> replica smoke (--replicas validation + replicated storm determinism)"
set +e
./target/release/repro --quick --quiet --replicas 0 serve-bench > /dev/null 2>&1
bad_zero=$?
./target/release/repro --quick --quiet --replicas 9 serve-bench > /dev/null 2>&1
bad_many=$?
set -e
if [[ "$bad_zero" -ne 2 || "$bad_many" -ne 2 ]]; then
    echo "verify: --replicas 0 / 9 exited $bad_zero / $bad_many (expected 2 / 2)" >&2
    exit 1
fi
replica_dir="$ledger_dir/replicas"
mkdir -p "$replica_dir"
set +e
./target/release/repro --quick --faults storm --replicas 3 --threads 1 serve-bench \
    > "$replica_dir/bench_1.md"
rep_t1=$?
./target/release/repro --quick --faults storm --replicas 3 --threads 4 serve-bench \
    > "$replica_dir/bench_4.md"
rep_t4=$?
set -e
for code in "$rep_t1" "$rep_t4"; do
    if [[ "$code" -ne 0 && "$code" -ne 3 ]]; then
        echo "verify: replicated serve-bench exited $code (expected 0 or 3)" >&2
        exit 1
    fi
done
if [[ "$rep_t1" -ne "$rep_t4" ]]; then
    echo "verify: replicated serve-bench exit codes differ between threads" >&2
    exit 1
fi
if ! cmp -s "$replica_dir/bench_1.md" "$replica_dir/bench_4.md"; then
    echo "verify: replicated serve-bench differs between --threads 1 and 4" >&2
    diff "$replica_dir/bench_1.md" "$replica_dir/bench_4.md" | head -20 >&2
    exit 1
fi
if ! grep -q "3-way replicated store" "$replica_dir/bench_1.md"; then
    echo "verify: replicated serve-bench report does not name its replication factor" >&2
    exit 1
fi
if ! grep -q "0 false accepts" "$replica_dir/bench_1.md"; then
    echo "verify: replicated storm run must keep zero false accepts" >&2
    exit 1
fi
echo "replica smoke: usage errors rejected, replicated storm deterministic"

# Incident smoke: the request-scoped audit trail, end to end. Capture
# exp18 under a quarter storm with --audit at 1 and 4 worker threads,
# require `report incidents` to reconstruct byte-identical causal
# timelines from both captures, and validate the audit JSONL's schema
# invariants (monotonic seq, causally linked request chains). See
# docs/OBSERVABILITY.md ("Serve audit trail & incident forensics").
echo "==> incident smoke (exp18 audit capture + report incidents determinism)"
audit_dir="$ledger_dir/audit"
mkdir -p "$audit_dir"
set +e
./target/release/repro --quick --quiet --faults storm@0.25 --audit \
    --telemetry "$audit_dir/t1.jsonl" --threads 1 exp18
audit_t1=$?
./target/release/repro --quick --quiet --faults storm@0.25 --audit \
    --telemetry "$audit_dir/t4.jsonl" --threads 4 exp18
audit_t4=$?
set -e
for code in "$audit_t1" "$audit_t4"; do
    if [[ "$code" -ne 0 && "$code" -ne 3 ]]; then
        echo "verify: audited exp18 exited $code (expected 0 or 3)" >&2
        exit 1
    fi
done
./target/release/repro report incidents "$audit_dir/t1.jsonl" > "$audit_dir/inc_1.md"
./target/release/repro report incidents "$audit_dir/t4.jsonl" > "$audit_dir/inc_4.md"
if ! cmp -s "$audit_dir/inc_1.md" "$audit_dir/inc_4.md"; then
    echo "verify: report incidents differs between --threads 1 and 4" >&2
    diff "$audit_dir/inc_1.md" "$audit_dir/inc_4.md" | head -20 >&2
    exit 1
fi
if ! grep -q "Incident report" "$audit_dir/inc_1.md"; then
    echo "verify: report incidents produced no incident report" >&2
    exit 1
fi
./target/release/repro report slo "$audit_dir/t1.jsonl" > "$audit_dir/slo.md"
if ! grep -q "SLO report" "$audit_dir/slo.md"; then
    echo "verify: report slo produced no SLO report" >&2
    exit 1
fi
python3 - "$audit_dir/t1.jsonl" <<'PY'
import json, sys

seq = -1
requests = {}
verdicts = 0
scrubs = 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or '"event":"audit"' not in line:
        continue
    ev = json.loads(line)
    if ev.get("event") != "audit":
        continue
    assert ev["seq"] > seq, f"audit seq not monotonic: {ev['seq']} after {seq}"
    seq = ev["seq"]
    stage = ev["stage"]
    if stage in ("request", "store_read", "attempt", "verdict"):
        req = ev["req"]
        assert len(req) == 16 and int(req, 16) >= 0, f"bad request id {req!r}"
        order = requests.setdefault(req, [])
        order.append(stage)
        if stage == "store_read" and ev.get("outcome") == "intact":
            assert ev.get("replica", 0) >= 0, f"intact read without a replica: {ev}"
        if stage == "verdict":
            verdicts += 1
            assert order[0] == "request", f"chain for {req} missing its request head: {order}"
            assert ev["verdict"] in (
                "accepted", "rejected", "timed_out",
                "corrupt_record", "missing", "malformed",
            ), ev["verdict"]
    elif stage == "scrub":
        scrubs += 1
        assert ev["outcome"] in ("read_repair", "unrecoverable"), ev["outcome"]
        assert ev["replica"] >= 0 and ev["generation"] >= 0, ev
    elif stage == "store_health":
        assert ev["from"] in ("intact", "replica-degraded", "quorum-critical"), ev
        assert ev["to"] in ("intact", "replica-degraded", "quorum-critical"), ev
assert verdicts > 0, "audit capture carried no verdicts"
for req, order in requests.items():
    assert order.count("request") == 1, f"{req}: {order}"
    assert order.count("verdict") <= 1, f"{req}: {order}"
print(f"audit JSONL valid: {len(requests)} request chains, {verdicts} verdicts, {scrubs} scrub findings")
PY
echo "incident smoke: forensics byte-identical at 1 and 4 threads"

echo "==> verify OK"
