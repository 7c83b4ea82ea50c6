#!/usr/bin/env bash
# CI smoke for semantic cache keys: a default (canon-on) flqd and a
# --no-canon flqd must return byte-identical verdict fields on a fixed
# pair set that exercises the canonicalizer (renamed / permuted /
# redundant-atom respellings of the same cores), the canon counters must
# be live on GET /metrics, and a loadgen variant storm must verify
# bit-identically against local ground truth in both modes.
#
# Expects release binaries already built; override with FLQD= / LOADGEN=.
set -euo pipefail

FLQD=${FLQD:-./target/release/flqd}
LOADGEN=${LOADGEN:-./target/release/loadgen}

[ -x "$FLQD" ] || { echo "missing $FLQD (build flqd first)" >&2; exit 2; }
[ -x "$LOADGEN" ] || { echo "missing $LOADGEN (build loadgen first)" >&2; exit 2; }

tmp=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null; done
    rm -rf "$tmp"
    return 0
}
trap cleanup EXIT

# Starts flqd with the given extra flags; sets ADDR (readiness is an
# event via --ready-fd, not a poll). Not usable inside a command
# substitution: the backgrounded server would hold the captured stdout
# open forever.
start_flqd() {
    local fifo="$tmp/ready.$$.$RANDOM.fifo"
    mkfifo "$fifo"
    "$FLQD" --addr 127.0.0.1:0 --ready-fd 3 "$@" 3>"$fifo" &
    PIDS+=($!)
    ADDR=$(head -n1 "$fifo")
    [ -n "$ADDR" ] || { echo "no readiness line from flqd" >&2; exit 1; }
}

# One HTTP request over /dev/tcp; prints the response.
request() {
    local addr=$1 method=$2 path=$3 body=${4:-}
    local host=${addr%:*} port=${addr##*:}
    exec 3<>"/dev/tcp/$host/$port"
    printf '%s %s HTTP/1.1\r\nhost: smoke\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
        "$method" "$path" "${#body}" "$body" >&3
    timeout 10 cat <&3
    exec 3<&- 3>&-
}

start_flqd
ADDR_ON=$ADDR
start_flqd --no-canon
ADDR_OFF=$ADDR
echo "canon-on flqd at $ADDR_ON, --no-canon flqd at $ADDR_OFF"

echo "== identical verdicts, canon-on vs --no-canon =="
# Respellings of shared cores (renamed vars, permuted bodies, redundant
# atoms) mixed with negatives and a vacuous chase failure. Only the
# verdict field is compared: chase statistics legitimately differ when
# the canon server decides on the core representative.
pairs=(
    'q(X, Z) :- sub(X, Y), sub(Y, Z).|p(X, Z) :- sub(X, Z).'
    'q(A, C) :- sub(B, C), sub(A, B).|p(U, W) :- sub(U, W).'
    'q(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, W), sub(W, Z).|p(X, Z) :- sub(X, Z).'
    'q(X) :- member(X, c).|p(X) :- sub(X, c).'
    'q() :- data(o, a, 1), data(o, a, 2), funct(a, o).|p() :- sub(X, Y).'
)
for pair in "${pairs[@]}"; do
    q1=${pair%%|*}
    q2=${pair##*|}
    body="{\"q1\":\"$q1\",\"q2\":\"$q2\"}"
    for addr in "$ADDR_ON" "$ADDR_OFF"; do
        resp=$(request "$addr" POST /v1/contains "$body")
        head -n1 <<<"$resp" | grep -q ' 200 ' || { echo "non-200 from $addr for: $body" >&2; exit 1; }
    done
    v_on=$(request "$ADDR_ON" POST /v1/contains "$body" | grep -o '"verdict":"[a-z_]*"')
    v_off=$(request "$ADDR_OFF" POST /v1/contains "$body" | grep -o '"verdict":"[a-z_]*"')
    [ -n "$v_on" ] || { echo "no verdict field for: $body" >&2; exit 1; }
    [ "$v_on" = "$v_off" ] || { echo "verdict drift on $q1 vs $q2: canon=$v_on raw=$v_off" >&2; exit 1; }
    echo "  $v_on  $q1 vs $q2"
done

echo "== canon counters live on GET /metrics =="
metrics_on=$(request "$ADDR_ON" GET /metrics)
metrics_off=$(request "$ADDR_OFF" GET /metrics)
canon_keys=$(grep -o 'flqd_canon_keys_total [0-9]*' <<<"$metrics_on" | awk '{print $2}')
[ "${canon_keys:-0}" -gt 0 ] || { echo "canon-on server reports no canon passes" >&2; exit 1; }
canon_keys_off=$(grep -o 'flqd_canon_keys_total [0-9]*' <<<"$metrics_off" | awk '{print $2}')
[ "${canon_keys_off:-0}" -eq 0 ] || { echo "--no-canon server canonicalized anyway" >&2; exit 1; }
echo "  canon-on flqd_canon_keys_total=$canon_keys, --no-canon flqd_canon_keys_total=$canon_keys_off"

echo "== variant storm verifies against local ground truth in both modes =="
# 4 mutated respellings of every base pair; --verify recomputes each
# exact variant locally, so this is the end-to-end soundness gate for
# key canonicalization (and for honestly missing without it).
"$LOADGEN" --addr "$ADDR_ON" --pairs 8 --variants 4 --requests 120 --concurrency 2 --keep-alive --warmup 40 --verify
"$LOADGEN" --addr "$ADDR_OFF" --pairs 8 --variants 4 --requests 120 --concurrency 2 --keep-alive --warmup 40 --verify

echo "canon smoke OK"
