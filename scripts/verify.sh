#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, lint-clean clippy.
# CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace -- -D warnings
