#!/usr/bin/env bash
# Crash-recovery drills against the real release binaries and a real
# `kill -9`, in three phases:
#
#   1. Campaign drill: SIGKILL a running campaign mid-flight, resume it
#      from the write-ahead journal in a fresh process, and assert the
#      completed (cell, threshold, gap) result set is byte-identical to
#      an uninterrupted run's.
#
#   2. Server drill: start the gap-finding job server, submit jobs over
#      HTTP, SIGKILL the server after the acks, restart it on the same
#      directory, and assert every acknowledged job reaches the same
#      certified result (exact f64 bit patterns, compared via the
#      `outcome_wire` encoding) as an uninterrupted server run.
#
#   3. Blast-radius drill: (a) SIGKILL a sandboxed *worker child* mid-cell
#      and assert the supervisor retries it to the same bit-identical
#      results with the server never wobbling; (b) inject ENOSPC under
#      the journal (GAPSERVER_IO_FAULTS) and assert the server degrades
#      to read-only draining — refusing new work, still answering
#      /healthz and /metrics, still drainable.
#
# usage: scripts/crash_drill.sh [path/to/campaign_drill] [path/to/gapserver]
set -euo pipefail

BIN="${1:-target/release/campaign_drill}"
GAPSERVER="${2:-target/release/gapserver}"
if [[ ! -x "$BIN" ]]; then
    echo "drill binary not found: $BIN (build with \`cargo build --release -p metaopt-campaign\`)" >&2
    exit 1
fi
if [[ ! -x "$GAPSERVER" ]]; then
    echo "server binary not found: $GAPSERVER (build with \`cargo build --release -p metaopt-server\`)" >&2
    exit 1
fi
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# ----------------------------------------------------------------------
# Phase 1: campaign drill (kill -9 mid-campaign, resume, compare).
# ----------------------------------------------------------------------

# Uninterrupted baseline. Slice size 1 keeps ticks (and journal writes)
# frequent, which widens the useful kill window.
SLICE=1
"$BIN" run "$WORK/baseline" "$SLICE" | grep '^RESULT' | sort > "$WORK/want.txt"
[[ -s "$WORK/want.txt" ]]

phase1_ok=0
delay_ms=80
for attempt in $(seq 1 30); do
    dir="$WORK/kill-$attempt"
    "$BIN" run "$dir" "$SLICE" >/dev/null 2>&1 &
    pid=$!
    sleep "$(awk "BEGIN { print $delay_ms / 1000 }")"
    if ! kill -0 "$pid" 2>/dev/null; then
        # Finished before the kill landed: shorten the delay and retry.
        wait "$pid" || true
        delay_ms=$(( delay_ms * 2 / 3 ))
        (( delay_ms >= 5 )) || delay_ms=5
        continue
    fi
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    # A useful kill leaves pending work behind in a readable journal
    # (killing before the header is journaled makes `status` fail: retry).
    if "$BIN" status "$dir" 2>/dev/null | grep -q '^PENDING'; then
        "$BIN" resume "$dir" | grep '^RESULT' | sort > "$WORK/got.txt"
        diff -u "$WORK/want.txt" "$WORK/got.txt"
        echo "campaign crash drill OK: post-SIGKILL resume matches uninterrupted run (attempt $attempt)"
        phase1_ok=1
        break
    fi
    delay_ms=$(( delay_ms + 20 ))
done
if [[ "$phase1_ok" != 1 ]]; then
    echo "could not land a mid-run SIGKILL in 30 attempts" >&2
    exit 1
fi

# ----------------------------------------------------------------------
# Phase 2: server drill (kill -9 after ack, restart, compare bit-exact).
# ----------------------------------------------------------------------

job_spec() { # job_spec <label> <threshold>
    cat <<EOF
{"client":"drill","label":"$1",
 "topology":{"kind":"fig1","cap":100.0},
 "heuristic":{"kind":"dp","threshold":$2},
 "sweep":{"lo":0.0,"hi":100.0,"resolution":4.0},
 "budget":{"probe_cap_nodes":4000,"slice_nodes":16}}
EOF
}

start_server() { # start_server <dir>; sets SERVER_PID and ADDR
    rm -f "$1/ADDR"
    "$GAPSERVER" serve --dir "$1" --addr 127.0.0.1:0 --workers 2 >/dev/null &
    SERVER_PID=$!
    for _ in $(seq 1 300); do
        if [[ -s "$1/ADDR" ]]; then
            ADDR="$(cat "$1/ADDR")"
            return 0
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died during boot" >&2; exit 1; }
        sleep 0.05
    done
    echo "server never wrote $1/ADDR" >&2
    exit 1
}

submit_jobs() { # submit_jobs; uses ADDR
    for t in 30 50 70; do
        job_spec "drill-$t" "$t" | "$GAPSERVER" submit --addr "$ADDR" >/dev/null \
            || { echo "submit drill-$t refused" >&2; exit 1; }
    done
}

metric() { # metric <family>; scrapes /metrics on ADDR, prints the value
    "$GAPSERVER" metrics --addr "$ADDR" | awk -v m="$1" '$1 == m { print $2 }'
}

expect_metric() { # expect_metric <family> <want> <context>
    local got
    got="$(metric "$1")"
    if [[ "$got" != "$2" ]]; then
        echo "metric $1 = $got, expected $2 ($3)" >&2
        exit 1
    fi
}

collect_results() { # collect_results <outfile>; waits for jobs 1..3
    : > "$1"
    for id in 1 2 3; do
        "$GAPSERVER" wait --addr "$ADDR" "$id" --timeout-secs 300 > "$WORK/job-$id.json" \
            || { echo "job $id did not complete cleanly" >&2; cat "$WORK/job-$id.json" >&2; exit 1; }
        # label + exact-bit outcome encoding, independent of float printing.
        sed -n 's/.*"label":"\([^"]*\)".*"outcome_wire":"\([^"]*\)".*/\1 \2/p' \
            "$WORK/job-$id.json" >> "$1"
    done
    sort -o "$1" "$1"
    [[ "$(wc -l < "$1")" == 3 ]] || { echo "expected 3 results in $1" >&2; exit 1; }
}

# Uninterrupted server baseline.
start_server "$WORK/server-baseline"
submit_jobs
collect_results "$WORK/server-want.txt"
"$GAPSERVER" drain --addr "$ADDR" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Crash run: SIGKILL lands after the acks, before completion. Each 202
# ack means the job record is fsynced, so the admitted counter must read
# 3 on the live server — and must read 3 again after the restart below,
# re-derived purely from journal replay.
start_server "$WORK/server-crash"
submit_jobs
expect_metric metaopt_server_jobs_admitted_total 3 "pre-SIGKILL scrape"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Restart on the same directory: journal replay must resurrect every
# acknowledged job and run it to the identical certified result, with
# the journal-derived job counters consistent with the pre-kill scrape.
start_server "$WORK/server-crash"
expect_metric metaopt_server_jobs_admitted_total 3 "post-restart boot replay"
collect_results "$WORK/server-got.txt"
diff -u "$WORK/server-want.txt" "$WORK/server-got.txt"
expect_metric metaopt_server_jobs_admitted_total 3 "post-restart steady state"
expect_metric metaopt_server_jobs_completed_total 3 "all acknowledged jobs re-ran to done"
expect_metric metaopt_server_jobs_quarantined_total 0 "no job may quarantine in the drill"
"$GAPSERVER" drain --addr "$ADDR" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "server crash drill OK: post-SIGKILL restart reproduced all acknowledged jobs bit-identically (metrics re-derived consistently by replay)"

# ----------------------------------------------------------------------
# Phase 3a: worker-kill drill (SIGKILL a sandboxed child, not the server).
# ----------------------------------------------------------------------

# The phase-2 specs finish in milliseconds of actual compute, which makes
# a mid-cell kill a coin flip: by the time /proc shows the child it has
# often already delivered its `done` frame. Phase 3 sweeps the abilene
# topology (real branch-and-bound work, ~1s per job) with small slices so
# each worker stays busy long enough to be shot mid-cell.
slow_job_spec() { # slow_job_spec <label> <threshold>
    cat <<EOF
{"client":"drill","label":"$1",
 "topology":{"kind":"builtin","name":"abilene","cap":100.0},
 "heuristic":{"kind":"dp","threshold":$2},
 "sweep":{"lo":0.0,"hi":100.0,"resolution":4.0},
 "budget":{"probe_cap_nodes":50000,"slice_nodes":8}}
EOF
}

submit_slow_jobs() { # submit_slow_jobs; uses ADDR
    for t in 30 50 70; do
        slow_job_spec "kill-$t" "$t" | "$GAPSERVER" submit --addr "$ADDR" >/dev/null \
            || { echo "submit kill-$t refused" >&2; exit 1; }
    done
}

worker_child() { # worker_child <server-pid>; prints the first live --worker child
    local p ppid
    for p in /proc/[0-9]*; do
        p="${p#/proc/}"
        # ppid is the 2nd field after the parenthesised comm in stat.
        ppid="$(awk -F') ' '{ split($NF, f, " "); print f[2] }' "/proc/$p/stat" 2>/dev/null)" || continue
        [[ "$ppid" == "$1" ]] || continue
        if tr '\0' ' ' < "/proc/$p/cmdline" 2>/dev/null | grep -q -- '--worker'; then
            echo "$p"
            return 0
        fi
    done
    return 1
}

# Uninterrupted baseline with the phase-3 specs.
start_server "$WORK/worker-kill-baseline"
submit_slow_jobs
collect_results "$WORK/worker-kill-want.txt"
"$GAPSERVER" drain --addr "$ADDR" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

phase3_ok=0
for attempt in $(seq 1 5); do
    dir="$WORK/worker-kill-$attempt"
    start_server "$dir"
    submit_slow_jobs
    victim=""
    for _ in $(seq 1 400); do
        if victim="$(worker_child "$SERVER_PID")"; then
            break
        fi
        sleep 0.02
    done
    if [[ -z "$victim" ]]; then
        echo "no sandboxed worker child appeared under $SERVER_PID" >&2
        exit 1
    fi
    kill -9 "$victim" 2>/dev/null || true
    collect_results "$WORK/worker-kill-got.txt"
    diff -u "$WORK/worker-kill-want.txt" "$WORK/worker-kill-got.txt"
    expect_metric metaopt_server_jobs_quarantined_total 0 "a killed worker must retry, not quarantine"
    lost="$(metric metaopt_server_workers_lost_total)"
    "$GAPSERVER" drain --addr "$ADDR" >/dev/null
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
    if [[ "${lost:-0}" -ge 1 ]]; then
        phase3_ok=1
        echo "worker-kill drill OK: SIGKILLed child retried to bit-identical results (attempt $attempt, workers_lost=$lost)"
        break
    fi
    # The child delivered its result in the instant before the kill
    # landed; results were still identical, but the drill wants to see a
    # *lost* worker recovered, so try again.
done
if [[ "$phase3_ok" != 1 ]]; then
    echo "could not land a mid-cell worker SIGKILL in 5 attempts" >&2
    exit 1
fi

# ----------------------------------------------------------------------
# Phase 3b: disk-full drill (injected ENOSPC => read-only draining mode).
# ----------------------------------------------------------------------

# The fault must land after the ack, on a record the server journals on
# its own. With one job, the only appends before its 202 are the boot
# header (1) and the job's `job` record (2); occurrence 3 is therefore
# always the `run` record a worker journals when it claims the job.
dir="$WORK/disk-full"
rm -f "$dir/ADDR"
mkdir -p "$dir"
GAPSERVER_IO_FAULTS="append:3:enospc" "$GAPSERVER" serve --dir "$dir" --addr 127.0.0.1:0 --workers 2 >/dev/null &
SERVER_PID=$!
for _ in $(seq 1 300); do
    [[ -s "$dir/ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "faulty server died during boot" >&2; exit 1; }
    sleep 0.05
done
ADDR="$(cat "$dir/ADDR")"
job_spec "enospc" 50 | "$GAPSERVER" submit --addr "$ADDR" >/dev/null \
    || { echo "submit enospc refused before the fault fired" >&2; exit 1; }
degraded=0
for _ in $(seq 1 600); do
    if "$GAPSERVER" health --addr "$ADDR" | grep -q '"degraded":"'; then
        degraded=1
        break
    fi
    sleep 0.05
done
if [[ "$degraded" != 1 ]]; then
    echo "injected ENOSPC never degraded the server" >&2
    exit 1
fi
# Degraded, not dead: reads and metrics still answer on the same socket…
"$GAPSERVER" health --addr "$ADDR" | grep -q '"stopped":false' \
    || { echo "degraded server must not be stopped" >&2; exit 1; }
"$GAPSERVER" metrics --addr "$ADDR" | grep -q '^metaopt_campaign_journal_poisonings_total 1' \
    || { echo "journal poisoning not visible in /metrics" >&2; exit 1; }
"$GAPSERVER" status --addr "$ADDR" >/dev/null \
    || { echo "degraded server must still list jobs" >&2; exit 1; }
# …while new work is refused (503, submit exits nonzero)…
if job_spec "after-enospc" 50 | "$GAPSERVER" submit --addr "$ADDR" >/dev/null 2>&1; then
    echo "degraded server accepted a submission it cannot journal" >&2
    exit 1
fi
# …and drain still lands.
"$GAPSERVER" drain --addr "$ADDR" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "disk-full drill OK: injected ENOSPC degraded the server to read-only draining (refusing work, still observable, cleanly drained)"
