// Command netlockd runs a NetLock rack over real UDP sockets: a switch
// chain of -chain members and N lock-server nodes, optionally with a set
// of locks preinstalled in the switch data plane.
//
//	netlockd -listen 127.0.0.1:9000 -chain 3 -servers 2 -preinstall 1024 -slots-per-lock 16
//
// Every chain member's address is printed on startup (head first); point
// cmd/lockclient (or any internal/transport.Client) at the full list so
// clients survive head failure.
//
// Unless -metrics is empty, an HTTP endpoint serves the rack's
// observability surface:
//
//	/metrics      Prometheus text: per-stage latency histograms
//	              (netlock_switch_pass_ns, netlock_server_queue_wait_ns,
//	              netlock_acquire_e2e_ns), paper-aligned counters
//	              (grants, resubmits, overflows, rejects, lease expiries,
//	              per-tenant grants) and occupancy gauges (slots in use,
//	              resident locks, free entries).
//	/debug/vars   expvar JSON
//	/debug/pprof  runtime profiles
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "head switch UDP listen address (other nodes take ephemeral ports)")
	chain := flag.Int("chain", 1, "switch replication chain length (1-3)")
	servers := flag.Int("servers", 2, "number of lock servers (in-process)")
	slots := flag.Int("slots", 100_000, "switch shared-queue slots")
	maxLocks := flag.Int("max-locks", 8192, "switch lock-table capacity")
	priorities := flag.Int("priorities", 1, "priority levels (1-8)")
	preinstall := flag.Uint("preinstall", 0, "preinstall locks 1..N in the switch")
	slotsPerLock := flag.Uint64("slots-per-lock", 16, "total queue slots per preinstalled lock, split across the priority banks")
	lease := flag.Duration("lease", 500*time.Millisecond, "default lock lease (0 disables)")
	metrics := flag.String("metrics", "127.0.0.1:0", "metrics/pprof HTTP listen address (empty disables)")
	rebalanceEvery := flag.Duration("rebalance", 0, "online lock-placement rebalance interval (0 disables the loop)")
	rebalanceBudget := flag.Int("rebalance-budget", 0, "max live migrations per rebalance tick (0: rebalance default)")
	fabricRacks := flag.Int("fabric", 1, "run a multi-rack fabric with this many racks (each -chain deep; 1: single rack)")
	shards := flag.Int("shards", 64, "fabric shard-map granularity (with -fabric > 1)")
	flag.Parse()

	if *fabricRacks > 1 {
		runFabric(fabricConfig{
			racks:          *fabricRacks,
			shards:         *shards,
			chain:          *chain,
			servers:        *servers,
			slots:          *slots,
			maxLocks:       *maxLocks,
			priorities:     *priorities,
			preinstall:     *preinstall,
			slotsPerLock:   *slotsPerLock,
			lease:          *lease,
			metrics:        *metrics,
			rebalanceEvery: *rebalanceEvery,
		})
		return
	}

	// Two obs stripes: the head switch writes stripe 0 (the chain applies
	// every op once per member; counting member 0 keeps obs equal to what
	// one switch sees) and all lock servers share the atomic stripe 1;
	// scrapes merge them into one snapshot.
	reg := obs.New(obs.Config{Stripes: 2})

	tp, err := ctrlplane.New(ctrlplane.Config{
		Switches: *chain,
		Servers:  *servers,
		DataPlane: switchdp.Config{
			MaxLocks:       *maxLocks,
			TotalSlots:     *slots,
			Priorities:     *priorities,
			DefaultLeaseNs: int64(*lease),
			Obs:            reg.Stripe(0),
		},
		Server: lockserver.Config{
			Priorities:     *priorities,
			DefaultLeaseNs: int64(*lease),
			Obs:            reg.Stripe(1),
		},
		HeadListen: *listen,
	})
	if err != nil {
		log.Fatalf("start rack: %v", err)
	}
	defer tp.Close()

	// Control-plane placement of the preinstalled locks: the controller
	// splits each lock's slots across the priority banks, installs it
	// chain-wide and releases ownership at the partition server.
	ctrl := tp.Controller()
	installed := 0
	for id := uint32(1); id <= uint32(*preinstall); id++ {
		if err := ctrl.InstallLock(id, *slotsPerLock); err != nil {
			log.Printf("preinstall stopped at lock %d: %v", id, err)
			break
		}
		installed++
	}

	// The online rebalancer: the same control loop the scenarios drive,
	// ticking against the live rack. Stopped before the rack closes (defer
	// order) so no move races the teardown.
	var loop *rebalance.Loop
	if *rebalanceEvery > 0 {
		loop = rebalance.New(ctrl, rebalance.Config{
			Interval: *rebalanceEvery,
			Budget:   *rebalanceBudget,
		})
		loop.Start()
		defer loop.Stop()
		fmt.Printf("netlockd: rebalancer ticking every %v\n", *rebalanceEvery)
	}

	if *metrics != "" {
		maddr, err := serveMetrics(*metrics, reg, tp, loop)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		fmt.Printf("netlockd: metrics on http://%s/metrics\n", maddr)
	}

	// "netlockd: switch on <addr>" is the parseable announcement contract
	// (smoke test, scripts): the head is the client-facing address in
	// every chain size, replicas are informational extras.
	addrs := ctrl.Addrs()
	fmt.Printf("netlockd: switch on %s\n", addrs[0])
	for i, a := range addrs[1:] {
		fmt.Printf("netlockd: chain member %d on %s\n", i+1, a)
	}
	for i, srv := range tp.Servers() {
		fmt.Printf("netlockd: lock server %d on %s\n", i, srv.Addr())
	}
	fmt.Printf("netlockd: %d locks preinstalled (%d slots each), %d total slots, lease %v\n",
		installed, *slotsPerLock, *slots, *lease)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("netlockd: shutting down")
}

// serveMetrics starts the observability HTTP listener and returns its bound
// address. The default mux already carries /debug/pprof (net/http/pprof) and
// /debug/vars (expvar); /metrics renders a merged snapshot of every node's
// stripe plus the current head switch's occupancy gauges as Prometheus text.
func serveMetrics(addr string, reg *obs.Registry, tp *ctrlplane.Topology, loop *rebalance.Loop) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	expvar.Publish("netlock", expvar.Func(func() any {
		return snapshotRack(reg, tp, loop).String()
	}))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sn := snapshotRack(reg, tp, loop)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := sn.WriteProm(w); err != nil {
			log.Printf("metrics: write: %v", err)
		}
	})
	go http.Serve(ln, nil)
	return ln.Addr().String(), nil
}

// snapshotRack merges the counter/histogram stripes and attaches the
// current chain head's occupancy gauges (every member applies the same op
// stream, so any member's occupancy is the rack's).
func snapshotRack(reg *obs.Registry, tp *ctrlplane.Topology, loop *rebalance.Loop) *obs.Snapshot {
	sn := reg.Snapshot()
	s := tp.Head().Snapshot()
	sn.AddGauge("switch_slots_in_use", "Occupied switch shared-queue slots.", float64(s.SlotsInUse))
	sn.AddGauge("switch_resident_locks", "Locks resident in the switch data plane.", float64(s.ResidentLocks))
	sn.AddGauge("switch_free_entries", "Free switch lock-table entries.", float64(s.FreeEntries))
	sn.AddGauge("switch_pending_acquires", "Acquires whose grant has not yet reached a client.", float64(s.PendingAcquires))
	sn.AddGauge("chain_epoch", "Current chain configuration epoch.", float64(tp.Controller().Epoch()))
	sn.AddGauge("chain_members", "Live switch chain members.", float64(len(tp.Switches())))
	var moved uint64
	for _, srv := range tp.Servers() {
		srv.WithLockServer(func(ls *lockserver.Server) {
			moved += ls.Stats().MovedRejects
		})
	}
	sn.AddGauge("server_moved_redirects", "Requests answered with a moved redirect while a lock was in flight between nodes.", float64(moved))
	if loop != nil {
		st := loop.Stats()
		sn.AddGauge("rebalance_ticks", "Rebalance control-loop rounds.", float64(st.Ticks))
		sn.AddGauge("rebalance_promotions", "Locks live-promoted into the switch.", float64(st.Promotions))
		sn.AddGauge("rebalance_demotions", "Locks live-demoted to the servers.", float64(st.Demotions))
		sn.AddGauge("rebalance_move_failures", "Planned moves that failed and were re-planned.", float64(st.Failures))
	}
	return sn
}
