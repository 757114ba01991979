#!/usr/bin/env bash
# Runs the benchmark from the repository root:
#
#   bash mirzabench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Builds the release binary when the sources changed since the last build,
# then replaces itself with the binary. `cargo run` alone would rebuild on
# every call in a tree without `.git`: the build script of crates/bench
# asks to rerun when `.git/HEAD` changes, and Cargo treats a missing file
# as changed.
set -euo pipefail
export LC_ALL=C

target="${CARGO_TARGET_DIR:-mirzabench/target}"
bin="$target/release/mirzabench"
stamp_file="$target/release/mirzabench.sources"

stamp="$(
  find Cargo.toml Cargo.lock crates stubs mirzabench \
    -path mirzabench/target -prune -o -path mirzabench/out -prune -o \
    -type f \( -name '*.rs' -o -name Cargo.toml -o -name Cargo.lock \) -print0 |
    sort -z | xargs -0 sha256sum | sha256sum
)"

if [[ ! -x "$bin" || ! -f "$stamp_file" || "$(<"$stamp_file")" != "$stamp" ]]; then
  cargo build --release --offline --quiet --manifest-path mirzabench/Cargo.toml >&2
  printf '%s\n' "$stamp" >"$stamp_file"
fi
exec "$bin" "$@"
