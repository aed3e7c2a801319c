#!/bin/sh
# The anc_sweep exit-code and stderr-summary contract:
#   0  success                      2  usage / incompatible inputs
#   3  task errors or merge gaps    4  interrupted by signal
# plus the machine-greppable one-line summary
#   "anc_sweep: N ok, N error, N skipped, resumed N[ [interrupted]]"
# that must land on stderr on every path, --quiet included.  Also the
# anc_coordinator refusals of a config that could never supervise
# (exit 2), count flags of both CLIs refusing anything but one whole
# number (exit 2), and a --journal-stream worker stopping when its
# stdout breaks.
#
# usage: sweep_exit_codes_test.sh /path/to/anc_sweep /path/to/anc_coordinator
set -eu

USAGE="usage: sweep_exit_codes_test.sh SWEEP COORD"
SWEEP=${1:?$USAGE}
COORD=${2:?$USAGE}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_exit_codes.XXXXXX")
PID=
cleanup() {
    [ -n "$PID" ] && kill -KILL "$PID" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM
cd "$WORKDIR"

GRID="--scenario alice_bob --snr 20,30 --repetitions 2 --exchanges 4 \
      --payload-bits 256 --seed 99 --quiet"

# rc CMD... : run CMD, print its exit status, never trip set -e.
rc() { "$@" >/dev/null 2>stderr.log && echo 0 || echo $?; }

echo "== exit 0: clean run, summary line present even under --quiet"
# shellcheck disable=SC2086   # GRID is a flag list
[ "$(rc "$SWEEP" $GRID --threads 2)" = 0 ]
grep -E '^anc_sweep: [0-9]+ ok, 0 error, 0 skipped, resumed 0$' stderr.log

echo "== exit 2: usage errors"
[ "$(rc "$SWEEP")" = 2 ]                              # no --scenario
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --no-such-flag)" = 2 ]         # unknown flag
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --shard 4/3)" = 2 ]            # K > N
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --snr 30:10:2)" = 2 ]          # inverted range
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --merge a.anj --journal b.anj)" = 2 ]  # merge conflicts
# Vacuous grids: nothing to send would still report ok rows.
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --exchanges 0)" = 2 ]
grep -q "^error: .*exchanges" stderr.log
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --payload-bits 0)" = 2 ]
grep -q "^error: .*payload_bits" stderr.log
# nan/inf parse as doubles but are no operating point (they used to run
# and emit invalid JSON).
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --scheme anc --detector-threshold nan)" = 2 ]
grep -q "^error: .*detector_thresholds_db.*non-finite" stderr.log
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --scheme anc --detector-threshold inf)" = 2 ]
grep -q "^error: .*detector_thresholds_db.*non-finite" stderr.log
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --snr nan)" = 2 ]
grep -q "^error: .*snr_db.*non-finite" stderr.log
# The retired simd profile is refused, naming its replacement.
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --math-profile simd)" = 2 ]
grep -q "^error: .*simd.*fast" stderr.log
# --journal-stream copies a journal, so it needs one.
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --journal-stream)" = 2 ]
grep -q "^error: --journal-stream needs --journal" stderr.log
# ...and refuses to copy it into itself (an endless loop).
STATUS=0
# shellcheck disable=SC2086
"$SWEEP" $GRID --journal self.anj --journal-stream >> self.anj 2>stderr.log \
    || STATUS=$?
[ "$STATUS" = 2 ]
grep -q "^error: --journal-stream: stdout is the journal itself" stderr.log

echo "== exit 2: anc_coordinator configs that cannot supervise"
# shellcheck disable=SC2086
[ "$(rc "$COORD" --worker "$SWEEP" --work-dir wd_hb $GRID --heartbeat-ms 0)" = 2 ]
grep -q "heartbeat" stderr.log
# An unknown placeholder (a typo, or the retired {stream}) is refused
# before anything launches, instead of reaching /bin/sh as text.
for BAD in "{jornal}" "{stream}"; do
    # shellcheck disable=SC2086
    [ "$(rc "$COORD" --worker "$SWEEP" --work-dir wd_tpl $GRID \
        --launch-template "exec {worker} {grid} {journal_flag} $BAD")" = 2 ]
    grep -q "unknown placeholder $BAD" stderr.log
done
[ ! -e wd_tpl/shard1.anj ]

# Relaunch backoff that starts above its own cap.
# shellcheck disable=SC2086
[ "$(rc "$COORD" --worker "$SWEEP" --work-dir wd_backoff $GRID \
    --relaunch-initial-ms 600 --relaunch-max-ms 500)" = 2 ]
grep -q "^error: --relaunch-initial-ms must not exceed --relaunch-max-ms" stderr.log

echo "== exit 2: count flags take one whole number, not a list or fraction"
# Read as an axis, "2,4" used to run 2 and "2.5" to round, exit 0.
for FLAG in --threads --task-retries --repetitions --workers --shards \
            --worker-threads --heartbeat-ms --poll-ms --shard-retries \
            --startup-timeout-ms --relaunch-initial-ms --relaunch-max-ms; do
    for BAD in 2,4 2.5 1:3:1 -1; do
        # shellcheck disable=SC2086
        case $FLAG in
            --threads|--task-retries) STATUS=$(rc "$SWEEP" $GRID "$FLAG" "$BAD") ;;
            *) STATUS=$(rc "$COORD" --worker "$SWEEP" --work-dir wd_count $GRID \
                   "$FLAG" "$BAD") ;;
        esac
        [ "$STATUS" = 2 ]
        grep -q "^error: $FLAG wants a whole number, got: $BAD" stderr.log
    done
done
[ ! -e wd_count ]   # refused while parsing, before anything is made

echo "== a --journal-stream worker whose stdout breaks stops (exit 4)"
# SIGPIPE ignored, as under anc_coordinator (util/subprocess.cpp): the
# worker sees EPIPE, not the signal.  The link carries 64 bytes (inside
# the header line), then is gone; the worker must not go on computing.
BROKEN="--scenario alice_bob --snr 10:40:1 --repetitions 6 --exchanges 40 \
        --payload-bits 512 --seed 99 --quiet"
(
    trap '' PIPE
    # shellcheck disable=SC2086
    { STATUS=0
      "$SWEEP" $BROKEN --threads 1 --journal broken.anj --journal-stream \
          2>broken.log || STATUS=$?
      echo "$STATUS" > broken.status; } | head -c 64 > broken.head
)
[ "$(cat broken.status)" = 4 ] || {
    echo "FAIL: worker with a broken stdout exited $(cat broken.status)" >&2
    exit 1
}
grep -q "journal-stream: stdout: Broken pipe" broken.log
grep -q "\[interrupted\]" broken.log
[ "$(wc -c < broken.head)" = 64 ]
# 558 tasks in the grid; the worker stopped after a handful.
[ "$(wc -l < broken.anj)" -lt 20 ]

echo "== exit 2: incompatible resume journal (different seed)"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --journal seed99.anj >/dev/null 2>&1
# shellcheck disable=SC2086
OTHER_SEED=$(echo "$GRID" | sed 's/--seed 99/--seed 100/')
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $OTHER_SEED --resume seed99.anj)" = 2 ]
grep -q "seed" stderr.log

echo "== exit 3: merge with gaps (missing shard journal)"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 1/2 --journal shard1.anj >/dev/null 2>&1
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 2/2 --journal shard2.anj >/dev/null 2>&1
# Chop shard 2 down to its header: formally valid, zero task rows.
head -n 2 shard2.anj > shard2_empty.anj
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --merge shard1.anj,shard2_empty.anj)" = 3 ]
grep -q "merge is missing" stderr.log
grep -E '^anc_sweep: ' stderr.log

echo "== exit 4: interrupted by SIGTERM, summary says [interrupted]"
BIG="--scenario alice_bob --snr 10:40:1 --repetitions 6 --exchanges 40 \
     --payload-bits 512 --seed 99 --quiet"
# shellcheck disable=SC2086
"$SWEEP" $BIG --threads 1 --journal big.anj >/dev/null 2>interrupt.log &
PID=$!
# Let it finish a few tasks first (bounded wait, ~30 s cap).
WAITS=0
while [ "$({ wc -l < big.anj; } 2>/dev/null || echo 0)" -lt 5 ]; do
    kill -0 "$PID" 2>/dev/null || break
    WAITS=$(( WAITS + 1 ))
    [ "$WAITS" -gt 600 ] && { echo "FAIL: sweep never progressed" >&2; exit 1; }
    sleep 0.05
done
kill -TERM "$PID" 2>/dev/null || {
    echo "machine too fast: sweep finished before SIGTERM; skipping exit-4 leg" >&2
    wait "$PID" 2>/dev/null || true
    PID=
    echo "PASS: exit codes 0/2/3 and summary contract hold"
    exit 0
}
STATUS=0
wait "$PID" || STATUS=$?
PID=
[ "$STATUS" = 4 ] || { echo "FAIL: interrupted run exited $STATUS, want 4" >&2; exit 1; }
grep -q "\[interrupted\]" interrupt.log

echo "== interrupted journal resumes to completion with exit 0"
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $BIG --threads 2 --resume big.anj)" = 0 ]
grep -E 'resumed [1-9][0-9]*$' stderr.log

echo "PASS: exit codes 0/2/3/4 and the summary-line contract hold"
