#!/usr/bin/env sh
# Regenerates the committed cmd/loadgen benchmark artifacts. The repo's
# benchmark proper (end-to-end and per-layer metrics, including the embedded
# hot path, observability overhead and transport batching) is bench/run.sh;
# see bench/README.md.
#
#   scripts/bench.sh scenarios           # adversarial scenario suite on both
#                                        #   planes -> BENCH_scenarios.json
#   scripts/bench.sh scenarios -workload zipf -plane embedded  # one scenario
#   scripts/bench.sh failover            # head-kill recovery: 3-member chain
#                                        #   vs single switch -> BENCH_failover.json
#   scripts/bench.sh failover -quick     # shorter failover measurement
#   scripts/bench.sh rebalance           # hot-set drift: static placement vs
#                                        #   the online rebalancer -> BENCH_rebalance.json
#   scripts/bench.sh rebalance -quick    # shorter drift measurement
#   scripts/bench.sh multirack           # shard-map fabric: 1-rack vs 4-rack
#                                        #   aggregate throughput -> BENCH_multirack.json
#   scripts/bench.sh multirack -quick    # shorter fabric comparison
#
# To compare the raw embedded benchmarks between two commits, use benchstat:
#
#   go test -run '^$' -bench EmbeddedAcquireRelease -benchmem -count 10 . > /tmp/old.txt
#   git checkout <new> && go test -run '^$' -bench EmbeddedAcquireRelease -benchmem -count 10 . > /tmp/new.txt
#   benchstat /tmp/old.txt /tmp/new.txt
set -eu
cd "$(dirname "$0")/.."
case "${1:-}" in
scenarios)
	shift
	exec go run ./cmd/loadgen -workload all "$@"
	;;
failover)
	shift
	exec go run ./cmd/loadgen -failover "$@"
	;;
rebalance)
	shift
	exec go run ./cmd/loadgen -rebalance-bench "$@"
	;;
multirack)
	# 1024 locks against a fixed 16k-slot per-switch budget: one rack fits a
	# quarter of the space switch-resident, four racks fit all of it — the
	# aggregate-SRAM scaling the fabric exists for. 256 workers keep every
	# rack's egress frames full.
	shift
	exec go run ./cmd/loadgen -multirack-bench -racks 4 -workers 256 -locks 1024 "$@"
	;;
*)
	echo "usage: scripts/bench.sh scenarios|failover|rebalance|multirack [loadgen flags]" >&2
	exit 2
	;;
esac
