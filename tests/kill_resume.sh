#!/bin/bash
# Crash-safe checkpointing, end to end, on the real elagc binary.
#
# Usage: kill_resume.sh ELAGC WORK_DIR
#
# SIGKILLs a checkpointed stats run twice mid-simulation, auto-resumes
# it each time, and requires the final stats document byte-identical
# to an uninterrupted golden run. A corrupted snapshot handed to
# --resume-from must be rejected with exit 65 and the typed
# bad_checkpoint error document — never silently restored — while
# auto-resume over the same damaged file starts clean and still
# matches the golden run byte for byte.
set -eu

elagc=$1
work=$2
rm -rf "$work"
mkdir -p "$work/ckpts"
cd "$work"

fail() {
    echo "kill_resume: $*" >&2
    exit 1
}

cat > prog.c <<'EOF'
int a[512];
int b[512];
int main() {
    int sum = 0;
    for (int r = 0; r < 6000; r++) {
        for (int i = 0; i < 512; i++) {
            a[i] = i + r;
            b[i] = a[i] * 2;
            sum += b[i] - a[i];
        }
    }
    print(sum);
    return 0;
}
EOF

ckpt_args=(--json-stats=- --checkpoint-dir=ckpts --checkpoint-every=400000
           prog.c)

"$elagc" --json-stats=- prog.c > golden.json

# Checksum of the run's snapshot, or "none" while there is none. With
# "timed", also "none" while the snapshot is still of the baseline
# phase: only timed-phase snapshots carry the load-telemetry section,
# whose fourcc tag is TELE.
snapshot_sum() {
    local f
    for f in ckpts/elagc-*.ckpt; do
        [ -e "$f" ] || continue
        if [ "${1:-}" = timed ] && ! grep -aq TELE "$f"; then
            break
        fi
        cksum < "$f"
        return
    done
    echo none
}

# Start a checkpointed run and SIGKILL it as soon as it has written a
# snapshot newer than the one it may have resumed from (with "timed",
# one of the timed phase). The elagc binary is backgrounded directly,
# so $! is the simulator itself.
kill_mid_run() {
    local before now pid code=0 waited=0
    before=$(snapshot_sum)
    "$elagc" "${ckpt_args[@]}" > partial.json 2> partial.err &
    pid=$!
    while now=$(snapshot_sum "$@"); [ "$now" = none ] ||
          [ "$now" = "$before" ]; do
        kill -0 "$pid" 2> /dev/null || break
        [ "$waited" -lt 1200 ] || fail "no fresh snapshot within 120 s"
        sleep 0.1
        waited=$((waited + 1))
    done
    kill -KILL "$pid" 2> /dev/null || true
    wait "$pid" || code=$?
    [ "$code" -eq 137 ] ||
        fail "expected exit 137 (SIGKILL mid-run), got $code;" \
             "did the run finish before the kill?"
    ls ckpts/elagc-*.ckpt > /dev/null
}

# Round 1 dies in the baseline phase, round 2 in the timed phase, so
# the final resume restores the telemetry, pipeline and emulator
# state of the configured run.
kill_mid_run
kill_mid_run timed
"$elagc" "${ckpt_args[@]}" > resumed.json
cmp golden.json resumed.json || fail "resumed run differs from golden"

# Corrupt-checkpoint rejection: flip one byte in the middle.
kill_mid_run
ckpt=$(ls ckpts/elagc-*.ckpt | head -1)
size=$(stat -c %s "$ckpt")
offset=$((size / 2))
byte=$(od -An -tu1 -j "$offset" -N1 "$ckpt" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 255)))" |
    dd of="$ckpt" bs=1 seek="$offset" conv=notrunc 2> /dev/null

code=0
"$elagc" --json-stats=- --resume-from="$ckpt" prog.c > reject.json ||
    code=$?
[ "$code" -eq 65 ] ||
    fail "expected exit 65 for a corrupt --resume-from, got $code"
grep -q bad_checkpoint reject.json ||
    fail "no bad_checkpoint error document"

# Auto-resume over the damaged file must start clean and still match
# the golden run byte for byte.
"$elagc" "${ckpt_args[@]}" > fallback.json 2> fallback.err
grep -q 'starting clean' fallback.err ||
    fail "auto-resume over a corrupt snapshot did not start clean"
cmp golden.json fallback.json || fail "clean fallback differs from golden"

cd / && rm -rf "$work"
echo "kill_resume: ok"
