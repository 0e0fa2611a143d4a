#!/bin/sh
# Multi-machine farm checks over loopback TCP.
#
#   check_farm_net.sh MODE IMO_FARM IMO_WORKER IMO_SWEEP OUTDIR
#
# Modes:
#   basic              two remote workers, the second joining late (the
#                      farm may already be done by then); merged report
#                      must be byte-identical to imo-sweep
#   conn-drop          workers sever the connection mid-frame at random;
#                      reconnect + lease retry must converge to the
#                      identical report
#   conn-stutter       workers dribble frames one byte at a time; the
#                      coordinator must reassemble fragments exactly
#   handshake-corrupt  workers corrupt Hello frames on the wire; the
#                      frame CRC must reject them and the reconnect
#                      handshake must heal
#   auth               a wrong-token worker must be rejected with
#                      AuthFailed while the farm completes on the
#                      remaining authenticated worker
#   minworkers         a listening farm that never reaches --min-workers
#                      must fail with a structured error, not hang
set -eu

mode=$1
farm=$2
worker=$3
sweep=$4
outdir=$5

mkdir -p "$outdir"
ref="$outdir/ref.json"
out="$outdir/farm.json"
portfile="$outdir/port"
farmlog="$outdir/farm.log"
rm -f "$ref" "$out" "$portfile" "$farmlog"

FARM_PID=""
W1_PID=""
W2_PID=""
cleanup() {
    for pid in $FARM_PID $W1_PID $W2_PID; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

grid="--workloads ora --machines inorder --modes N,S --lens 1 --scale 0.1"

wait_port() {
    i=0
    while [ ! -s "$portfile" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "check_farm_net: farm never wrote $portfile" >&2
            cat "$farmlog" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    port=$(cat "$portfile")
}

token=s3cret

case "$mode" in
basic)
    "$sweep" $grid --jobs 1 --out "$ref"
    "$farm" $grid --listen 127.0.0.1:0 --port-file "$portfile" \
        --workers 0 --token "$token" --out "$out" 2>"$farmlog" &
    FARM_PID=$!
    wait_port
    "$worker" --coordinator 127.0.0.1:"$port" --token "$token" \
        --retries 30 --quiet &
    W1_PID=$!
    sleep 0.3
    # The late joiner finds the farm running, finishing or gone, so it
    # gets a short reconnect budget: it must either shut down cleanly
    # or give up with a bounded WorkerLost.
    "$worker" --coordinator 127.0.0.1:"$port" --token "$token" \
        --retries 3 --backoff-cap-ms 100 --quiet \
        2>"$outdir/lateworker.log" &
    W2_PID=$!
    wait "$FARM_PID"
    FARM_PID=""
    wait "$W1_PID"
    W1_PID=""
    set +e
    wait "$W2_PID"
    late_status=$?
    set -e
    W2_PID=""
    if [ "$late_status" -ne 0 ] &&
        ! { [ "$late_status" -eq 4 ] &&
            grep -q "WorkerLost" "$outdir/lateworker.log"; }; then
        echo "check_farm_net: late worker exited $late_status" >&2
        cat "$outdir/lateworker.log" >&2
        exit 1
    fi
    cmp "$ref" "$out"
    ;;

conn-drop | conn-stutter | handshake-corrupt)
    case "$mode" in
    conn-drop) prob=0.3 ;;
    *) prob=0.5 ;;
    esac
    "$sweep" $grid --jobs 1 --out "$ref"
    "$farm" $grid --listen 127.0.0.1:0 --port-file "$portfile" \
        --workers 0 --token "$token" --lease-ms 2000 \
        --out "$out" 2>"$farmlog" &
    FARM_PID=$!
    wait_port
    "$worker" --coordinator 127.0.0.1:"$port" --token "$token" \
        --fault "$mode=$prob" --fault-seed 11 \
        --backoff-base-ms 20 --backoff-cap-ms 200 \
        --retries 200 --quiet &
    W1_PID=$!
    "$worker" --coordinator 127.0.0.1:"$port" --token "$token" \
        --fault "$mode=$prob" --fault-seed 12 \
        --backoff-base-ms 20 --backoff-cap-ms 200 \
        --retries 200 --quiet &
    W2_PID=$!
    wait "$FARM_PID"
    FARM_PID=""
    # The workers exit on Shutdown, or burn out their reconnect budget
    # if the farm vanished while their connection was down; either way
    # the report identity below is the real gate.
    wait "$W1_PID" || true
    W1_PID=""
    wait "$W2_PID" || true
    W2_PID=""
    cmp "$ref" "$out"
    ;;

auth)
    "$sweep" $grid --jobs 1 --out "$ref"
    "$farm" $grid --listen 127.0.0.1:0 --port-file "$portfile" \
        --workers 0 --token "$token" --out "$out" 2>"$farmlog" &
    FARM_PID=$!
    wait_port
    set +e
    "$worker" --coordinator 127.0.0.1:"$port" --token wrong-token \
        --retries 5 2>"$outdir/badworker.log"
    bad_status=$?
    set -e
    if [ "$bad_status" -ne 4 ]; then
        echo "check_farm_net: wrong-token worker exited $bad_status, want 4" >&2
        cat "$outdir/badworker.log" >&2
        exit 1
    fi
    grep -q "AuthFailed" "$outdir/badworker.log"
    "$worker" --coordinator 127.0.0.1:"$port" --token "$token" \
        --retries 30 --quiet &
    W1_PID=$!
    wait "$FARM_PID"
    FARM_PID=""
    wait "$W1_PID"
    W1_PID=""
    grep -q "shared-token challenge" "$farmlog"
    cmp "$ref" "$out"
    ;;

minworkers)
    set +e
    "$farm" $grid --listen 127.0.0.1:0 --port-file "$portfile" \
        --workers 0 --lease-ms 600 --heartbeat-ms 100 \
        --out "$out" 2>"$farmlog"
    status=$?
    set -e
    if [ "$status" -ne 4 ]; then
        echo "check_farm_net: workerless farm exited $status, want 4" >&2
        cat "$farmlog" >&2
        exit 1
    fi
    grep -q -- "--min-workers" "$farmlog"
    ;;

*)
    echo "check_farm_net: unknown mode '$mode'" >&2
    exit 2
    ;;
esac

echo "check_farm_net: $mode OK"
