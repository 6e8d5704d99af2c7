#!/usr/bin/env bash
# End-to-end acceptance: build the real binaries, boot a 3-node cluster
# per model with ecctl, and check the things the networked runtime
# promises — writes serve over real TCP from every node, session
# guarantees survive reconnects (via the token), and killing a node
# leaves the cluster serving with /healthz on a survivor reporting the
# dead peer.
#
# Run from the repo root: ./scripts/e2e.sh
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'cd / && { [ -f "$workdir/.ecctl/cluster.json" ] && "$workdir/ecctl" down -dir "$workdir/.ecctl" || true; } >/dev/null 2>&1; rm -rf "$workdir"' EXIT

echo "== build binaries"
go build -o "$workdir" ./cmd/ecserver ./cmd/ecctl
export ECSERVER="$workdir/ecserver"

cd "$workdir"

for model in gossip quorum session; do
  echo "== model=$model: up 3 nodes"
  ./ecctl up -n 3 -model "$model"
  ./ecctl status
  ./ecctl ring
  echo "== model=$model: smoke (put/get on every node$([ "$model" = session ] && echo ', read-your-writes across reconnect'))"
  ./ecctl smoke
  ./ecctl put color teal
  [ "$(./ecctl get color)" = teal ]
  if [ "$model" = quorum ]; then
    # Each ecctl run is a fresh client, and the node keeps no context for
    # it: a put reads the key first and writes over what it read, so two
    # puts of one key through different nodes leave one value.
    ./ecctl put -node node0 twice first
    ./ecctl put -node node1 twice second
    [ "$(./ecctl get twice)" = second ] || { echo "FAIL: two ecctl puts left: $(./ecctl get twice | tr '\n' ' ')" >&2; exit 1; }
  fi
  ./ecctl down
  rm -rf .ecctl
  echo
done

echo "== fast path: quorum load must batch frames and group-commit the WAL"
./ecctl up -n 3 -model quorum -fsync sync
./ecctl bench -clients 32 -conns 4 -duration 3s
# Under concurrent load the coordinator's fan-out must pack several
# envelopes per frame and the WAL committer must cover several appends
# per fsync — both gauges sit at 1.0 when their machinery is dead.
httpb=$(awk '/"http"/{f=1} f && /"node0"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
if [ -n "$httpb" ] && command -v curl >/dev/null; then
  for gauge in ec_net_batch_size ec_wal_group_commit_size; do
    v=$(curl -fsS "http://$httpb/metrics" | awk -v g="$gauge" '$1 == g {print $2}')
    if [ -z "$v" ]; then
      echo "FAIL: $gauge not exported" >&2
      exit 1
    fi
    if ! awk -v v="$v" 'BEGIN{exit !(v > 1.05)}'; then
      echo "FAIL: $gauge = $v, want > 1.05 under concurrent quorum load" >&2
      exit 1
    fi
    echo "$gauge = $v"
  done
fi
./ecctl down
rm -rf .ecctl

echo
echo "== kill-a-node: cluster keeps serving, /healthz flags the corpse"
./ecctl up -n 3 -model quorum
./ecctl put durable yes
./ecctl kill node2
# Survivors keep serving reads and writes.
[ "$(./ecctl get durable)" = yes ]
./ecctl put after-kill also-yes
[ "$(./ecctl get after-kill)" = also-yes ]
# A survivor's failure detector must flip node2 to suspected.
# (cluster.json is MarshalIndent output; the "http" block follows "peers".)
# grep without -q: it must drain ecctl's output, or ecctl dies on
# SIGPIPE mid-print and pipefail turns the match into a failure.
http0=$(awk '/"http"/{f=1} f && /"node0"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
deadline=$((SECONDS + 20))
until ./ecctl status | grep 'suspects=.*node2' >/dev/null; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: node0 never suspected killed node2" >&2
    ./ecctl status >&2
    exit 1
  fi
  sleep 0.5
done
./ecctl status
if [ -n "$http0" ] && command -v curl >/dev/null; then
  curl -fsS "http://$http0/healthz" | grep node2 >/dev/null
  curl -fsS "http://$http0/metrics" | grep ec_transport_frames_sent_total >/dev/null
  echo "healthz + metrics endpoints verified via HTTP"
fi
./ecctl down
rm -rf .ecctl

echo
echo "== durability: kill -9 a node, restart it from its data dir"
./ecctl up -n 3 -model gossip
for i in $(seq 1 20); do ./ecctl put "dur-$i" "val-$i"; done
# Let replication land the keys on node2 before the crash.
deadline=$((SECONDS + 20))
until [ "$(./ecctl get -node node2 dur-20 2>/dev/null)" = val-20 ]; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: dur-20 never replicated to node2" >&2
    exit 1
  fi
  sleep 0.2
done
./ecctl kill node2
sleep 0.5
# A write node2 misses entirely: it must arrive by anti-entropy later.
./ecctl put missed-delta while-you-were-out
./ecctl restart node2
# The restarted node serves pre-kill keys immediately — replayed from
# its own WAL, not re-fetched (its /metrics proves a real replay ran).
for i in $(seq 1 20); do
  [ "$(./ecctl get -node node2 "dur-$i")" = "val-$i" ]
done
http2=$(awk '/"http"/{f=1} f && /"node2"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
if [ -n "$http2" ] && command -v curl >/dev/null; then
  replayed=$(curl -fsS "http://$http2/metrics" | awk '/^ec_wal_records_replayed_total/{print $2}')
  if [ -z "$replayed" ] || [ "$replayed" -lt 1 ]; then
    echo "FAIL: node2 reports no WAL records replayed (got '$replayed')" >&2
    exit 1
  fi
  echo "node2 replayed $replayed WAL records on restart"
fi
# ...and the missed write catches up via Merkle sync of just the delta.
deadline=$((SECONDS + 20))
until [ "$(./ecctl get -node node2 missed-delta 2>/dev/null)" = while-you-were-out ]; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: restarted node2 never synced the missed write" >&2
    exit 1
  fi
  sleep 0.2
done
./ecctl status
./ecctl down
rm -rf .ecctl

echo
echo "== lsm engine: disk-resident replica state behind the same protocol"
# One execution shard per node funnels every write into one engine, so a
# short bench with fat values reliably overflows the 4MiB memtable and
# forces flushes + tier compactions.
./ecctl up -n 3 -model quorum -engine lsm -shards 1
./ecctl status | grep 'lsm=' >/dev/null || { echo "FAIL: status does not show lsm disk usage" >&2; ./ecctl status >&2; exit 1; }
./ecctl smoke
# This bench deliberately overdrives a small host so the memtable
# overflows; while a flush or compaction holds the core, a few ops can
# cross the coordinator's 500ms quorum timeout. That is the bounded
# unavailability outcome the quorum model documents, not an engine
# failure — tolerate up to 2% errors here, fail on anything more.
benchrc=0
benchout=$(./ecctl bench -clients 16 -conns 4 -duration 4s -value 8192 -keys 3000 -get 0.3 2>&1) || benchrc=$?
echo "$benchout"
if [ "$benchrc" -ne 0 ]; then
  ops=$(echo "$benchout" | awk '/^bench: [0-9]+ ops in /{print $2; exit}')
  errs=$(echo "$benchout" | awk '/^bench: [0-9]+ ops in /{gsub(/\(/,""); print $(NF-1); exit}')
  if [ -z "$ops" ] || [ -z "$errs" ] || [ "$((errs * 50))" -gt "$ops" ]; then
    echo "FAIL: lsm bench errors exceed the 2% overload allowance (errs=${errs:-?} ops=${ops:-?})" >&2
    exit 1
  fi
  echo "lsm bench: $errs/$ops ops timed out under deliberate overload (within the 2% allowance)"
fi
httpl=$(awk '/"http"/{f=1} f && /"node0"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
if [ -n "$httpl" ] && command -v curl >/dev/null; then
  metrics=$(curl -fsS "http://$httpl/metrics")
  for m in ec_lsm_sstables ec_lsm_compactions_total ec_lsm_bloom_misses_total; do
    echo "$metrics" | grep "^$m " >/dev/null || { echo "FAIL: $m not exported by lsm node" >&2; exit 1; }
  done
  sst=$(echo "$metrics" | awk '/^ec_lsm_sstables /{print $2}')
  if [ -z "$sst" ] || [ "$sst" -lt 1 ]; then
    echo "FAIL: ec_lsm_sstables = '$sst', the bench never forced a flush" >&2
    exit 1
  fi
  echo "node0: $sst sstables, $(echo "$metrics" | awk '/^ec_lsm_compactions_total /{print $2}') compactions"
fi
# Crash recovery with replica state on disk: acked writes must survive a
# kill -9 — the server WAL is the redo log, so the lost memtable is
# rebuilt by replay on top of the flushed SSTables.
for i in $(seq 1 10); do ./ecctl put "lsmdur-$i" "val-$i"; done
./ecctl kill node2
sleep 0.5
./ecctl restart node2
for i in $(seq 1 10); do
  [ "$(./ecctl get -node node2 "lsmdur-$i")" = "val-$i" ]
done
echo "lsm node recovered all acked writes after kill -9"
./ecctl down
rm -rf .ecctl

echo
echo "== elasticity: live scale-out under load, then graceful decommission"
# Throttle the arc stream so the catch-up window is observable.
./ecctl up -n 3 -model quorum -transfer-rate 65536
blob=$(head -c 4096 /dev/zero | tr '\0' 'x')
for i in $(seq 1 40); do ./ecctl put "el-$i" "$blob"; done
# Consistent hashing's movement bound, predicted before the join: one
# node joining a 3-ring should move ~25% of primary ownership.
./ecctl ring -diff +node3
moved=$(./ecctl ring -diff +node3 | grep -oE '[0-9]+\.[0-9]+%' | head -1 | tr -d '%')
if ! awk -v m="$moved" 'BEGIN{exit !(m > 10 && m < 45)}'; then
  echo "FAIL: join would move $moved% of primary ownership, want ~25%" >&2
  exit 1
fi
# Keep writing while the joiner streams its arcs in.
: > acked.txt
(
  for i in $(seq 41 80); do
    ./ecctl put "el-$i" "v-$i" >/dev/null 2>&1 && echo "$i" >>acked.txt
    sleep 0.05
  done
) &
loadpid=$!
./ecctl add-node | tee add-node.txt
wait "$loadpid"
# The joiner must have been gated (catching-up) before it settled.
grep -q 'catching-up' add-node.txt || { echo "FAIL: joiner never reported catching-up" >&2; exit 1; }
grep -q 'caught up at epoch 1' add-node.txt
./ecctl status | grep '^node3 .*state=ok' >/dev/null || { echo "FAIL: joiner not state=ok in status" >&2; ./ecctl status >&2; exit 1; }
# Zero lost acked writes: every acknowledged key, served by the joiner.
for i in $(seq 1 40); do
  [ "$(./ecctl get -node node3 "el-$i")" = "$blob" ]
done
while read -r i; do
  [ "$(./ecctl get -node node3 "el-$i")" = "v-$i" ]
done <acked.txt
http3=$(awk '/"http"/{f=1} f && /"node3"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
if [ -n "$http3" ] && command -v curl >/dev/null; then
  ranges=$(curl -fsS "http://$http3/metrics" | awk '/^ec_transfer_ranges_total/{print $2}')
  if [ -z "$ranges" ] || [ "$ranges" -lt 1 ]; then
    echo "FAIL: joiner exports no completed transfer ranges (got '$ranges')" >&2
    exit 1
  fi
  curl -fsS "http://$http3/healthz" | grep '"state": "ok"' >/dev/null
  echo "joiner streamed $ranges arc ranges, healthz state=ok"
fi
echo "-- scale back in: decommission the joiner"
./ecctl decommission node3 | tee decom.txt
grep -q 'left at epoch 2' decom.txt
if ./ecctl status | grep node3 >/dev/null; then
  echo "FAIL: node3 still in status after decommission" >&2
  exit 1
fi
# The survivors hold every acked key after the handoff.
for i in $(seq 1 40); do
  [ "$(./ecctl get "el-$i")" = "$blob" ]
done
while read -r i; do
  [ "$(./ecctl get "el-$i")" = "v-$i" ]
done <acked.txt
./ecctl down
rm -rf .ecctl acked.txt add-node.txt decom.txt

echo
echo "== geo-replication: 3 zones x 3 nodes, SLA tiers, cross-zone partition nemesis"
# 30ms injected per cross-zone frame stands in for WAN RTT; writes ack
# on the intra-zone sub-quorum and a per-zone replicator streams the
# rest asynchronously.
./ecctl up -n 9 -zones us,eu,ap -xzone-delay 30ms
# Zone column in status (node0=us, node1=eu, node2=ap round-robin).
./ecctl status | grep '^node0 .*zone=us' >/dev/null || { echo "FAIL: status shows no zone for node0" >&2; ./ecctl status >&2; exit 1; }
./ecctl status | grep '^node1 .*zone=eu' >/dev/null
for i in $(seq 1 20); do ./ecctl put "geo-$i" "v-$i"; done
# Strong reads see every acked write immediately, through the ring owner.
for i in 1 10 20; do
  [ "$(./ecctl get -sla strong "geo-$i" 2>/dev/null)" = "v-$i" ]
done
# Eventual reads serve from the contacted node's own zone and converge
# once the async replicator ships the writes over.
deadline=$((SECONDS + 30))
for i in $(seq 1 8); do
  until [ "$(./ecctl get -node node0 -sla eventual "geo-$i" 2>/dev/null)" = "v-$i" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "FAIL: eventual read of geo-$i never converged at node0" >&2
      exit 1
    fi
    sleep 0.2
  done
done
./ecctl get -node node0 -sla eventual geo-1 2>&1 >/dev/null | grep 'delivered=eventual' >/dev/null
# The tier trade, measured: the same 8 reads are faster at eventual than
# at strong, because eventual never pays the injected cross-zone RTT.
measure_tier() {
  local start end
  start=$(date +%s%N)
  for i in $(seq 1 8); do ./ecctl get -node node0 -sla "$1" "geo-$i" >/dev/null 2>&1 || true; done
  end=$(date +%s%N)
  echo $(( (end - start) / 1000000 ))
}
strong_ms=$(measure_tier strong)
eventual_ms=$(measure_tier eventual)
echo "8 reads: strong=${strong_ms}ms eventual=${eventual_ms}ms"
if [ "$eventual_ms" -ge "$strong_ms" ]; then
  echo "FAIL: eventual-tier reads (${eventual_ms}ms) not faster than strong (${strong_ms}ms)" >&2
  exit 1
fi
# Geo series on /metrics and replicator lag on /healthz.
httpg=$(awk '/"http"/{f=1} f && /"node0"/{gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json)
if [ -n "$httpg" ] && command -v curl >/dev/null; then
  metrics=$(curl -fsS "http://$httpg/metrics")
  for m in 'ec_geo_staleness_ms{zone=' 'ec_zone_rtt_seconds{zone=' ec_geo_shipped_total ec_geo_queue_depth; do
    echo "$metrics" | grep -F "$m" >/dev/null || { echo "FAIL: $m not exported by zoned node" >&2; exit 1; }
  done
  curl -fsS "http://$httpg/healthz" | grep '"zone": "us"' >/dev/null
  curl -fsS "http://$httpg/healthz" | grep 'geo_staleness_ms' >/dev/null
  echo "geo metrics + healthz lag verified via HTTP"
fi
deadline=$((SECONDS + 20))
until ./ecctl status | grep 'geo-lag=' >/dev/null; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: status never showed cross-zone replicator lag" >&2
    ./ecctl status >&2
    exit 1
  fi
  sleep 0.5
done
./ecctl status
echo "-- cross-zone partition nemesis: freeze eu+ap, write in us, heal, verify"
# Pick keys the us zone owns, so their writes ack inside the partition.
us_keys=""
i=0
while [ "$(echo "$us_keys" | wc -w)" -lt 5 ]; do
  i=$((i + 1))
  owner=$(./ecctl ring "part-$i" | sed -n 's/.*owner=\(node[0-9]*\).*/\1/p')
  case "$owner" in node0|node3|node6) us_keys="$us_keys part-$i" ;; esac
done
pid_of() { awk -v pat="\"$1\"" '/"pids"/{f=1} f && index($0, pat) {gsub(/[",]/,""); print $2; exit}' .ecctl/cluster.json; }
remote="node1 node2 node4 node5 node7 node8"
for nid in $remote; do kill -STOP "$(pid_of "$nid")"; done
for k in $us_keys; do ./ecctl put "$k" "pv-$k"; done
# The surviving zone keeps serving eventual reads throughout.
[ "$(./ecctl get -node node0 -sla eventual geo-1 2>/dev/null)" = v-1 ]
for nid in $remote; do kill -CONT "$(pid_of "$nid")"; done
# Zero lost acked writes: every write acked under the partition is read
# back at strong tier after the heal, and the resumable replicator
# drains it cross-zone (visible as an eventual read inside eu).
deadline=$((SECONDS + 40))
for k in $us_keys; do
  until [ "$(./ecctl get -sla strong "$k" 2>/dev/null)" = "pv-$k" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "FAIL: acked write $k lost after partition heal" >&2
      exit 1
    fi
    sleep 0.5
  done
  until [ "$(./ecctl get -node node1 -sla eventual "$k" 2>/dev/null)" = "pv-$k" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "FAIL: replicator never delivered $k to eu after heal" >&2
      exit 1
    fi
    sleep 0.5
  done
done
echo "partition nemesis: ${us_keys# } acked in us, survived, and drained cross-zone"
./ecctl down
rm -rf .ecctl

echo
echo "e2e: all models served over real TCP; session guarantees held; fast path batched frames and group-committed the WAL; node kill tolerated; crash recovery replayed the WAL; lsm engine flushed, compacted, and recovered from kill -9; live scale-out/in moved arcs with zero lost acked writes; geo SLA tiers traded consistency for latency and no acked write was lost across a cross-zone partition"
