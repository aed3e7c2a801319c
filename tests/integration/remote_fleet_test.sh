#!/bin/sh
# Remote-fleet chaos test (ENGINE.md "Remote workers"): run a sweep as a
# streamed fleet — workers journal into a "remote" directory and copy
# their journals to stdout (--journal-stream), which the coordinator
# appends to the shard mirrors in its work dir — while the link
# misbehaves and the harness SIGKILLs random workers and SIGKILLs and
# restarts the coordinator itself.  The restarted coordinator adopts the
# shards whose worker trees survived it (their worker logs are still
# locked) and relaunches the rest at once.  The merged artifacts must
# stay byte-identical to an uninterrupted single-process anc_sweep run
# at both the 1- and 8-worker configurations.
#
# Link faults are standard tools in the launch template, keyed by
# shard and attempt:
#   shard 1, attempt 1   head -c 7          sever inside the magic line
#   shard 1, attempt 2   sed '3s/./#/20'    corrupt a task line in transit
#   shard 2, attempt 1   head -c 3000       sever mid-entry
#   shard 2, attempt 2   sed '4p'           duplicate a line in transit
#   shard 3, attempt 1   head -n 4          sever at a line boundary
#   shard 4, attempt 1   sed '5s/./#/30'    corrupt a task line in transit
# A severed worker sees EPIPE on its next write and stops; the
# coordinator relaunches the shard with --resume, and the replay from
# byte 0 fills in whatever the link lost.  A restarted coordinator counts
# attempts afresh, so the faults replay after the restart; the retry
# budget covers that.  A last, fault-free leg runs exec'd workers (no
# template) to show exec_launcher streams too.
#
# usage: remote_fleet_test.sh /path/to/anc_coordinator /path/to/anc_sweep
set -eu

USAGE="usage: remote_fleet_test.sh COORD SWEEP"
COORD=${1:?$USAGE}
SWEEP=${2:?$USAGE}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_remote_fleet.XXXXXX")
COORD_PID=
cleanup() {
    [ -n "$COORD_PID" ] && kill -KILL "$COORD_PID" 2>/dev/null
    # Reap orphaned workers: their argv carries the remote journal dir.
    pkill -KILL -f "$WORKDIR/" 2>/dev/null || true
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM
cd "$WORKDIR"

# Sized so each task costs a noticeable fraction of a second: the fleet
# legs must still be RUNNING when the harness starts killing things, or
# the chaos is vacuous.
GRID="--scenario alice_bob --snr 10:38:4 --repetitions 4 --exchanges 100 \
      --payload-bits 2048 --seed 777"

echo "== uninterrupted single-process baseline"
# shellcheck disable=SC2086   # GRID is a flag list
"$SWEEP" $GRID --quiet --threads 2 --json baseline.json \
    --csv baseline_agg.csv --tasks-csv baseline_tasks.csv

WORKER="{worker} {grid} --quiet --threads {threads} --shard {shard}/{shards} \
{journal_flag} {journal} --journal-stream"
TEMPLATE="case {shard}:{attempt} in
  1:1) $WORKER | head -c 7 ;;
  1:2) $WORKER | sed '3s/./#/20' ;;
  2:1) $WORKER | head -c 3000 ;;
  2:2) $WORKER | sed '4p' ;;
  3:1) $WORKER | head -n 4 ;;
  4:1) $WORKER | sed '5s/./#/30' ;;
  *) exec $WORKER ;;
esac"

start_coord() {
    # $1 = workers, $2 = shards, $3 = work dir, $4 = output prefix
    # shellcheck disable=SC2086
    "$COORD" --worker "$SWEEP" --launch-template "$TEMPLATE" \
        --workers "$1" --shards "$2" --work-dir "$3" \
        --worker-journal-dir "$3/remote" \
        --shard-retries 12 --heartbeat-ms 10000 --startup-timeout-ms 8000 \
        --relaunch-initial-ms 50 --relaunch-max-ms 500 --poll-ms 20 \
        $GRID --quiet \
        --json "$4.json" --csv "$4_agg.csv" --tasks-csv "$4_tasks.csv" \
        --metrics-json "$4_metrics.json" 2> "$4.log" &
    COORD_PID=$!
}

kill_one_worker() {
    # The worker's argv starts with the anc_sweep path and carries the
    # remote journal path; the /bin/sh wrapper's does not start so.
    VICTIM=$(pgrep -f "^$SWEEP .*$1/remote/shard" | head -n 1)
    if [ -n "$VICTIM" ] && kill -KILL "$VICTIM" 2>/dev/null; then
        echo "   SIGKILLed worker pid $VICTIM"
    fi
}

# chaos_run LEG WORKERS SHARDS: the template's link faults, worker
# SIGKILLs, and one coordinator SIGKILL+restart (adoption of the live
# workers) — then byte-compare everything.
chaos_run() {
    LEG=$1; WORKERS=$2; SHARDS=$3
    CDIR="$WORKDIR/wd_$LEG"
    echo "== chaos leg $LEG: $WORKERS workers, $SHARDS shards"

    start_coord "$WORKERS" "$SHARDS" "$CDIR" "out_$LEG"

    sleep 0.7
    kill_one_worker "$CDIR"

    # The coordinator dies mid-run; its workers (own process groups)
    # survive and keep appending to the mirrors.  The restarted
    # coordinator adopts every shard whose worker log is still locked.
    sleep 0.7
    if kill -0 "$COORD_PID" 2>/dev/null; then
        kill -KILL "$COORD_PID" 2>/dev/null || true
        wait "$COORD_PID" 2>/dev/null || true
        echo "   SIGKILLed coordinator; restarting over the same work dir"
    else
        echo "   coordinator already finished; restart still must be a no-op"
    fi
    start_coord "$WORKERS" "$SHARDS" "$CDIR" "out_$LEG"

    sleep 0.7
    kill_one_worker "$CDIR"

    STATUS=0
    wait "$COORD_PID" || STATUS=$?
    COORD_PID=
    if [ "$STATUS" != 0 ]; then
        echo "FAIL: coordinator exited $STATUS" >&2
        cat "out_$LEG.log" >&2
        exit 1
    fi

    cmp baseline.json "out_$LEG.json"
    cmp baseline_agg.csv "out_${LEG}_agg.csv"
    cmp baseline_tasks.csv "out_${LEG}_tasks.csv"
    grep -q '"schema":"anc.metrics.v1"' "out_${LEG}_metrics.json"
    grep -q '"adoptions":' "out_${LEG}_metrics.json"
    # The corrupted and torn lines reached a mirror and were dropped
    # there, not merged.
    grep -q '"dropped_journal_lines":[1-9]' "out_${LEG}_metrics.json"
    echo "   byte-identical (leg $LEG)"
}

chaos_run 1 1 2
chaos_run 2 8 8

# Without a template, exec_launcher passes --journal-stream itself once
# --worker-journal-dir differs from --work-dir.  With no faults, every
# mirror is a byte copy of its worker's journal.
echo "== exec'd streamed fleet: 4 workers, 4 shards, no faults"
EDIR="$WORKDIR/wd_exec"
# shellcheck disable=SC2086
"$COORD" --worker "$SWEEP" --workers 4 --shards 4 --work-dir "$EDIR" \
    --worker-journal-dir "$EDIR/remote" $GRID --quiet \
    --json out_exec.json 2> out_exec.log
cmp baseline.json out_exec.json
for K in 1 2 3 4; do
    cmp "$EDIR/remote/shard$K.anj" "$EDIR/shard$K.anj"
done

echo "PASS: streamed fleet byte-identical under worker kills, severed and" \
     "corrupting links, and a coordinator restart at 1 and 8 workers;" \
     "exec'd workers stream their journals too"
