#!/usr/bin/env bash
# Local CI: formatting, lints, and the test suite in both feature
# configurations (parallel selector hot path on and off).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (default features)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (serial/no-telemetry: --no-default-features)"
cargo clippy -p chef-linalg -p chef-model -p chef-data -p chef-core -p chef-bench -p chef-obs -p chef-serve --all-targets --no-default-features -- -D warnings

echo "==> no-sleep guard (daemon suites must synchronize on condvars, not time)"
# Sleep-based tests are flaky under load and slow everywhere; the serve
# harness is required to be event-driven end to end.
if grep -rn "thread::sleep" tests/serve_*.rs crates/serve/src; then
  echo "serve code/tests must not call thread::sleep" >&2
  exit 1
fi

echo "==> cargo test (default features, 1 rayon worker)"
# The shim's pool size is env-pinned; running the suite at both ends of
# {1,4} workers covers the serial dispatch path and the chunked
# parallel paths (serial/parallel equivalence tests then compare real
# threads).
RAYON_NUM_THREADS=1 cargo test -q --workspace

echo "==> cargo test (default features, 4 rayon workers)"
RAYON_NUM_THREADS=4 cargo test -q --workspace

echo "==> cargo test (serial: --no-default-features)"
# --no-default-features applies to the packages that own the `parallel`
# and `telemetry` features; the rest of the workspace is unaffected.
cargo test -q -p chef-linalg -p chef-model -p chef-data -p chef-core -p chef-bench -p chef-obs -p chef-serve --no-default-features

echo "==> cargo test (fault injection: crash/torn-write/bit-flip replay equivalence)"
cargo test -q -p chef-core --features fault-inject --test checkpoint_resume --test store_equivalence

echo "==> cargo test (fault injection, serial: --no-default-features)"
cargo test -q -p chef-core --no-default-features --features fault-inject --test checkpoint_resume --test store_equivalence

echo "==> cargo test (daemon fault harness: kill-mid-round / torn-checkpoint / stale-replay under serve)"
cargo test -q -p chef-serve --features fault-inject --test serve_fault

echo "==> cargo test (daemon fault harness, serial: --no-default-features)"
cargo test -q -p chef-serve --no-default-features --features fault-inject --test serve_fault

# The pooled scheduler must preserve every serve invariant at both ends
# of its pool-size range: 1 worker (fully serialized slices) and the
# default 4. CHEF_SERVE_WORKERS pins the pool without touching tests.
echo "==> cargo test (serve suites, 1-worker pool)"
CHEF_SERVE_WORKERS=1 cargo test -q -p chef-serve
CHEF_SERVE_WORKERS=1 cargo test -q -p chef-serve --features fault-inject --test serve_fault

echo "==> cargo test (serve suites, 4-worker pool)"
CHEF_SERVE_WORKERS=4 cargo test -q -p chef-serve
CHEF_SERVE_WORKERS=4 cargo test -q -p chef-serve --features fault-inject --test serve_fault

# One framed submit + blocking results piped through the daemon's stdio
# mode: proves the binary, the protocol, and the job manager compose
# outside the test harness. `results` waits for the job, so the smoke
# needs no polling.
serve_smoke() {
  local spec='{"name":"smoke","dataset":"MIMIC","scale":30,"seed":5,"budget":10,"round_size":5}'
  local ask='{"job":1}'
  local out
  out=$( { printf 'chef-serve.v1 submit %d\n%s\n' "${#spec}" "$spec"
           printf 'chef-serve.v1 results %d\n%s\n' "${#ask}" "$ask"
         } | cargo run -q --release -p chef-serve "$@" -- --stdin )
  if ! grep -q '"final_test_f1"' <<<"$out"; then
    echo "serve smoke: no results frame in daemon output:" >&2
    echo "$out" >&2
    exit 1
  fi
}

echo "==> chef-serve stdio smoke (default features)"
serve_smoke

echo "==> chef-serve stdio smoke (--no-default-features)"
serve_smoke --no-default-features

echo "==> serve_scale bench (quick smoke: pooled vs thread-per-job, thread census + bit identity)"
cargo run -q --release -p chef-serve --bin serve_scale -- --quick

echo "==> serve_scale bench (quick smoke, --no-default-features)"
cargo run -q --release -p chef-serve --bin serve_scale --no-default-features -- --quick

echo "==> infl_kernels bench (quick smoke: batched kernels run end-to-end)"
cargo run -q --release -p chef-bench --bin infl_kernels -- --quick

echo "==> par_speedup bench (quick smoke: thread sweep re-execs at 1/2/4 workers)"
cargo run -q --release -p chef-bench --bin par_speedup -- --quick --threads 1,2,4

echo "==> train_kernels bench (quick smoke, default features)"
cargo run -q --release -p chef-bench --bin train_kernels -- --quick

echo "==> train_kernels bench (quick smoke, --no-default-features)"
cargo run -q --release -p chef-bench --bin train_kernels --no-default-features -- --quick

echo "==> oocs_scale bench (quick smoke: in-memory vs mmap bit-identity + cold-open lane)"
cargo run -q --release -p chef-bench --bin oocs_scale -- --quick

echo "==> oocs_scale bench (quick smoke, pread fallback)"
cargo run -q --release -p chef-bench --bin oocs_scale -- --quick --force-pread
# Scratch hygiene: the bench must remove its per-run store directories.
if compgen -G "target/oocs_scale-*" > /dev/null; then
  echo "oocs_scale left scratch directories behind:" >&2
  ls -d target/oocs_scale-* >&2
  exit 1
fi

echo "==> cargo test --doc (default features)"
cargo test -q --doc --workspace

echo "==> cargo test --doc (--no-default-features)"
cargo test -q --doc -p chef-linalg -p chef-model -p chef-data -p chef-core -p chef-bench -p chef-obs -p chef-serve --no-default-features

echo "==> cargo doc (default features, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo doc (--no-default-features, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p chef-linalg -p chef-model -p chef-data -p chef-core -p chef-bench -p chef-obs -p chef-serve --no-default-features

# The end-to-end benchmark is its own Cargo workspace built against the
# library's public API: a deletion that breaks it must fail here, not
# when the benchmark runs.
echo "==> e2ebench build (release, offline)"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

# Every workload once, quick and untraced, through the binary just
# built. It exits 0 even when its own checks fail (async ≡ sync,
# in-memory ≡ mmap, zero failed operations), so gate on its result
# line: the last line of standard output.
echo "==> e2ebench quick smoke (every workload, gated on its checks)"
for workload in paper-inmem ooc-window serve-durable; do
  last=$(e2ebench/target/release/chef-e2ebench --workload "$workload" \
           --seed 1 --seconds 1 --trace 0 --quick | tail -n 1)
  if ! grep -q '"correct":true' <<<"$last" || ! grep -qE '"failed":0[,}]' <<<"$last"; then
    echo "e2ebench $workload quick smoke failed its checks:" >&2
    echo "$last" >&2
    exit 1
  fi
done

echo "==> e2ebench tests"
cargo test --release --manifest-path e2ebench/Cargo.toml

echo "ci.sh: all green"
