#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== scripts parse"
bash -n scripts/ab.sh

echo "== one format epoch"
# The product reads and writes one diff format and one log format: no
# v1 diff codec and no checkpoint-marker record may come back.
if grep -rnE 'DiffWire::V1|decode_v1|encode_v1|KIND_CHECKPOINT|LogRecord::Checkpoint' crates/*/src; then
  echo "a reader or writer of a retired format is back under crates/*/src"
  exit 1
fi

echo "== the server never drops a durable-store result"
# An append that failed must refuse the commit it logs, so no result of
# the durable store may be thrown away under crates/server/src.
if grep -rnE 'let _ = store([.]|$)|let _ = .*append_diff' crates/server/src; then
  echo "a durable-store result is discarded under crates/server/src"
  exit 1
fi

echo "== one file holds the client's connections"
# crates/core/src/links.rs is the only client code that calls a
# transport, says Hello or Goodbye, or sleeps between retries.
if grep -n '\.request(\|Request::Hello\|Request::Goodbye\|thread::sleep' crates/core/src/*.rs \
  | grep -v '^crates/core/src/links.rs:'; then
  echo "transport call, handshake or sleep outside crates/core/src/links.rs"
  exit 1
fi

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q

echo "== cluster failover e2e"
cargo test -q -p iw-cli --test cluster

echo "== server concurrency suite (threads unpinned)"
# The suite's whole point is real parallelism: make sure no inherited
# RUST_TEST_THREADS=1 serializes it into meaninglessness.
env -u RUST_TEST_THREADS cargo test -q -p iw-server --test concurrency
env -u RUST_TEST_THREADS cargo test -q -p iw-server --test prop_interleave
# Same for the front end: its loop-placement tests (a slow handler
# delays only its own loop; a pipelining client cannot starve its loop)
# must see loops that really run side by side.
env -u RUST_TEST_THREADS cargo test -q --release -p iw-net

echo "== TCP contention stress (release)"
env -u RUST_TEST_THREADS cargo test -q --release -p iw-cli --test contention -- --nocapture | grep "contention result"

echo "== chaos soak (release, fixed seeds, 120s cap)"
# Deterministic fault-injection soaks over the CI seed set. Bounded by
# wall clock so a wedged run fails loudly instead of hanging the gate;
# a failing seed is printed for replay with `iwchaos --seed N --trace`.
cargo build --release -q -p iw-cli --bin iwchaos
for seed in 1 7 42; do
  if ! timeout 120 target/release/iwchaos --seed "$seed"; then
    echo "chaos soak FAILED at seed $seed (replay: iwchaos --seed $seed --trace)"
    exit 1
  fi
done

echo "== replica-read soak (release, fixed seeds, 120s cap)"
# One writer vs backup-pinned relaxed readers while the primary→backup
# ship link wears seeded faults: every backup-served read must stay
# within its staleness bound, with zero violations, and the settled
# probe must be replica-served once the faults drain.
for seed in 1 7 42; do
  if ! timeout 120 target/release/iwchaos --replica-reads --seed "$seed"; then
    echo "replica-read soak FAILED at seed $seed (replay: iwchaos --replica-reads --seed $seed --trace)"
    exit 1
  fi
done
env -u RUST_TEST_THREADS timeout 300 cargo test -q --release -p iw-faults

echo "== recovery (durable soak + SIGKILL mid-commit + restart, oracle byte-compare)"
# iwchaos --recover runs two checks per seed: the chaos soak on a
# durable primary whose data dir is reopened and byte-compared against
# the soak-end image, and a real `iwsrv --data-dir` child SIGKILLed
# mid-commit, restarted, and byte-compared against a fault-free oracle.
cargo build --release -q -p iw-cli --bin iwchaos --bin iwsrv
for seed in 1 7 42; do
  if ! timeout 120 target/release/iwchaos --seed "$seed" --recover; then
    echo "recovery FAILED at seed $seed (replay: iwchaos --seed $seed --recover)"
    exit 1
  fi
done

echo "== bench smoke (translation ratios + wire bytes vs committed baselines)"
# BENCH_9: each Figure 4 mix's collect and apply, as a ratio to a hot
# memcpy of the same local image timed in the same run (so the host's
# speed cancels), must stay under the `<mix>.<phase>_limit` in
# BENCH_9.json: the ten-run median x (1 + max(10%, 1.5 x the ten-run
# range / median)). BENCH_10: the v2 and v2+lz encoded-byte totals
# across the wire mixes must equal the committed ones exactly (they are
# deterministic, so any change trips the gate until BENCH_10.json is
# re-committed with the reason in CHANGES.md).
# Regenerate: run
#   target/release/bench_trajectory 1.0 --out run-N.json --wire-out BENCH_10.json
# ten times, derive each limit by the rule above, and commit one run's
# JSON with a "limits" object holding them as BENCH_9.json.
cargo build --release -q -p iw-bench --bin bench_trajectory
target/release/bench_trajectory 1.0 --out /tmp/BENCH_9.current.json \
  --wire-out /tmp/BENCH_10.current.json \
  --baseline crates/bench/baselines/BENCH_9.json \
  --wire-baseline crates/bench/baselines/BENCH_10.json

echo "== iwbench package gate (fmt, clippy, tests, untraced + traced smoke)"
# benchmark/ is its own workspace measuring the crates through their
# public items: a crate change that breaks its build or its output
# checks must fail here, not in the pipeline that runs BENCHMARK.json.
benchmark/check.sh

echo "== many-client scale (iw-net front end, release)"
# A release iwsrv on an ephemeral port, driven by iwload: every session
# is a live TCP connection committing acquire-write-release rounds, and
# the run fails on any protocol error or content divergence. Three
# checks: (1) the connections-vs-throughput curve through the
# run-to-completion front end, topping out at >=2000 concurrent
# sessions (reference numbers: EXPERIMENTS.md "Event-driven front
# end"); (2) the admission contract — beyond --max-conns every
# connection still gets a *typed* answer (Overloaded), never a hang or
# reset; (3) a chaos-seeded smoke: recoverable ingress faults survived
# by reconnect/retry with zero surviving errors, and at least one fault
# actually injected.
cargo build --release -q -p iw-cli --bin iwsrv --bin iwload --bin iwstat
if [ "$(ulimit -n)" -lt 8192 ]; then ulimit -n 8192 || true; fi
scale_dir=$(mktemp -d)
scale_pid=""
start_iwsrv() {
  rm -f "$scale_dir/port"
  target/release/iwsrv --listen 127.0.0.1:0 --port-file "$scale_dir/port" \
    "$@" 2>"$scale_dir/iwsrv.log" &
  scale_pid=$!
  for _ in $(seq 1 100); do [ -s "$scale_dir/port" ] && break; sleep 0.1; done
  scale_addr=$(cat "$scale_dir/port")
}
stop_iwsrv() {
  [ -n "$scale_pid" ] && kill "$scale_pid" 2>/dev/null || true
  wait "$scale_pid" 2>/dev/null || true
  scale_pid=""
}
trap 'stop_iwsrv' EXIT

start_iwsrv
timeout 300 target/release/iwload --addr "$scale_addr" \
  --curve 256,1024,2000 --rounds 5 --drivers 32
stop_iwsrv

start_iwsrv --max-conns 32
timeout 60 target/release/iwload --addr "$scale_addr" --expect-busy 48
stop_iwsrv

start_iwsrv --chaos 7
timeout 120 target/release/iwload --addr "$scale_addr" \
  --sessions 64 --rounds 5 --drivers 16 --chaos
# A chaos run that injected nothing proves nothing. The scrape goes
# through the same faulty ingress, so it may be hit itself: retry it.
injected=""
for _ in $(seq 1 20); do
  injected=$(target/release/iwstat --server "$scale_addr" --filter faults. 2>/dev/null \
    | awk '$1 == "faults.injected_total" { print $NF }') || true
  [ -n "$injected" ] && break
done
if [ "${injected:-0}" -eq 0 ]; then
  echo "chaos smoke injected no faults (faults.injected_total=${injected:-never scraped})"
  exit 1
fi
echo "chaos smoke: faults.injected_total=$injected"
stop_iwsrv

echo "== read-replica fan-out (3-node group, 200 temporal readers)"
# A primary plus two `--backup-of` replicas, then the iwload fan-out
# harness: one writer streaming versions while 200 temporal reader
# sessions pull the shared segment through the replica pool (discovered
# from the primary's advertised set). Fails on any torn/regressing
# read, any staleness-bound violation, zero replica-served reads, or a
# replica share of network reads below 80%.
backup_pids=""
stop_backups() {
  for p in $backup_pids; do kill "$p" 2>/dev/null || true; done
  for p in $backup_pids; do wait "$p" 2>/dev/null || true; done
  backup_pids=""
}
trap 'stop_backups; stop_iwsrv' EXIT
start_iwsrv
for b in 1 2; do
  rm -f "$scale_dir/bport$b"
  target/release/iwsrv --listen 127.0.0.1:0 --port-file "$scale_dir/bport$b" \
    --backup-of "$scale_addr" 2>"$scale_dir/backup$b.log" &
  backup_pids="$backup_pids $!"
done
for _ in $(seq 1 100); do
  grep -q attached "$scale_dir/backup1.log" 2>/dev/null \
    && grep -q attached "$scale_dir/backup2.log" 2>/dev/null && break
  sleep 0.1
done
timeout 120 target/release/iwload --addr "$scale_addr" \
  --readers 200 --reads 10 --writes 40 --window-ms 1 --min-share 80
stop_backups
stop_iwsrv

echo "CI OK"
