#!/usr/bin/env bash
# Cross-build resume check: snapshots that `repro` built at <rev> writes
# must resume under the working tree's `repro` to the working tree's
# uninterrupted result.
#
#   scripts/cross_build_resume.sh <rev>
#
# Builds `repro` from an export of <rev> (`git archive`, with its own
# target dir) and from the working tree (its usual target dir), then:
#   * `run --quick` and `run --quick --compression q8`: crash at <rev>
#     after day 1, resume with the working tree; the resumed `.result`
#     must equal the working tree's uninterrupted run;
#   * `serve --quick` on tests/fixtures/serve_tiny.ndjson: crash at <rev>
#     at minute 2880, resume with the working tree; the crash log
#     followed by the resume log must equal the working tree's
#     uninterrupted log byte for byte.
# Exits non-zero on any mismatch. Everything else it writes lives in
# one temporary directory, removed on exit.
#
# A resume needs the same config fingerprint (`SimConfig::run_hash`,
# pinned in tests/pinned_outputs.rs) at both builds. A <rev> from
# before the last change to the config's serialized shape therefore
# fails on `ConfigMismatch`, by design: its snapshots still decode, but
# a resume never blends two configs. The last such change deleted
# `SimConfig::supervision` and made `SensorFaultConfig` a seed and one
# severity.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# The crashing runs abort; keep core files out of the working tree.
ulimit -c 0

build() { cargo build --release --offline --locked -q -p pfdrl-bench --bin repro "$@"; }
echo "building repro at $rev"
mkdir "$tmp/old"
git archive "$rev" | tar -x -C "$tmp/old"
(cd "$tmp/old" && build --target-dir "$tmp/old-target")
old="$tmp/old-target/release/repro"
echo "building repro from the working tree"
build
target_dir=$(cargo metadata --offline --format-version 1 --no-deps |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["target_directory"])')
new="$target_dir/release/repro"

# Runs the command after the log path, output to that log; on failure
# shows the log and stops.
logged() {
    local log=$1
    shift
    if ! "$@" > "$log" 2>&1; then
        echo "failed: $*" >&2
        cat "$log" >&2
        exit 1
    fi
}

# Runs the command after the log path, which must die. An inner shell
# waits for it, so the shell's notice of the abort lands in the log.
crashes() {
    local log=$1
    shift
    if bash -c '"$@"; exit $?' crash "$@" > "$log" 2>&1; then
        echo "expected a crash, but it exited 0: $*" >&2
        exit 1
    fi
}

# check_run <name> [repro run flags...]
check_run() {
    local name=$1
    shift
    local dir="$tmp/$name"
    mkdir "$dir"
    logged "$dir/ref.log" "$new" run --quick --json "$@" --out-dir "$dir/ref"
    crashes "$dir/crash.log" "$old" run --quick "$@" --checkpoint-dir "$dir/ck" \
        --crash-after-day 1 --out-dir "$dir/crash"
    logged "$dir/resume.log" "$new" run --quick --json "$@" --checkpoint-dir "$dir/ck" \
        --out-dir "$dir/resume"
    if ! grep -q "resumed from snapshot" "$dir/resume.log"; then
        echo "$name: the working tree did not resume from the $rev snapshot" >&2
        cat "$dir/resume.log" >&2
        exit 1
    fi
    python3 - "$name" "$dir/ref/run.json" "$dir/resume/run.json" <<'EOF'
import json
import sys

name, ref, res = sys.argv[1], *(json.load(open(p)) for p in sys.argv[2:])
if json.dumps(ref["result"], sort_keys=True) != json.dumps(res["result"], sort_keys=True):
    sys.exit(f"{name}: the resumed .result differs from the uninterrupted run")
print(f"{name}: resumed .result equals the uninterrupted run")
EOF
}

check_run run
check_run run-q8 --compression q8

dir="$tmp/serve"
mkdir "$dir"
stream="$root/tests/fixtures/serve_tiny.ndjson"
logged "$dir/ref.log" "$new" serve --quick --stream "$stream" \
    --serve-out "$dir/ref.ndjson" --out-dir "$dir/ref"
crashes "$dir/crash.log" "$old" serve --quick --stream "$stream" \
    --serve-out "$dir/crash.ndjson" --checkpoint-dir "$dir/ck" \
    --crash-after-minute 2880 --out-dir "$dir/crash"
logged "$dir/resume.log" "$new" serve --quick --stream "$stream" \
    --serve-out "$dir/resume.ndjson" --checkpoint-dir "$dir/ck" --out-dir "$dir/resume"
if ! grep -q "resumed from serve snapshot" "$dir/resume.log"; then
    echo "serve: the working tree did not resume from the $rev snapshot" >&2
    cat "$dir/resume.log" >&2
    exit 1
fi
cat "$dir/crash.ndjson" "$dir/resume.ndjson" | cmp - "$dir/ref.ndjson"
echo "serve: crash log + resume log equals the uninterrupted log"
echo "cross-build resume from $rev: every check passed"
