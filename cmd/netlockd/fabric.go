package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/fabric"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
)

type fabricConfig struct {
	racks, shards   int
	chain, servers  int
	slots, maxLocks int
	priorities      int
	preinstall      uint
	slotsPerLock    uint64
	lease           time.Duration
	metrics         string
	rebalanceEvery  time.Duration
}

// runFabric is the -fabric daemon path: N racks over real UDP behind one
// shard map. Clients reconstruct the initial map from the announced
// geometry (wire.NewShardMap(racks, shards), epoch 1) and self-heal via
// wrong-rack bounces from there.
func runFabric(cfg fabricConfig) {
	// Stripe 0 collects every rack's head switch, stripe 1 every lock
	// server; the fabric-wide scrape is their merge.
	reg := obs.New(obs.Config{Stripes: 2})
	f, err := fabric.New(fabric.Config{
		Racks:  cfg.racks,
		Shards: cfg.shards,
		Rack: ctrlplane.Config{
			Switches: cfg.chain,
			Servers:  cfg.servers,
			DataPlane: switchdp.Config{
				MaxLocks:       cfg.maxLocks,
				TotalSlots:     cfg.slots,
				Priorities:     cfg.priorities,
				DefaultLeaseNs: int64(cfg.lease),
				Obs:            reg.Stripe(0),
			},
			Server: lockserver.Config{Obs: reg.Stripe(1)},
		},
	})
	if err != nil {
		log.Fatalf("start fabric: %v", err)
	}
	defer f.Close()

	// Preinstalled locks land switch-resident on their map-assigned home
	// rack — installing elsewhere would leave them unreachable.
	m := f.Controller().Map()
	installed := 0
	for id := uint32(1); id <= uint32(cfg.preinstall); id++ {
		if err := f.Rack(m.RackOf(id)).Controller().InstallLock(id, cfg.slotsPerLock); err != nil {
			log.Printf("preinstall stopped at lock %d: %v", id, err)
			break
		}
		installed++
	}

	// The fabric-level rebalancer: per-rack demand gauges feed shard
	// re-homing, one shard per tick from the hottest rack to the coldest.
	stopBalance := make(chan struct{})
	defer close(stopBalance)
	if cfg.rebalanceEvery > 0 {
		go func() {
			t := time.NewTicker(cfg.rebalanceEvery)
			defer t.Stop()
			for {
				select {
				case <-stopBalance:
					return
				case <-t.C:
					mv, err := f.Controller().BalanceTick(cfg.rebalanceEvery.Seconds(), 2)
					if err != nil {
						log.Printf("balance: %v", err)
					} else if mv != nil {
						fmt.Printf("netlockd: re-homed shard %d rack %d -> %d (epoch %d, %d locks)\n",
							mv.Shard, mv.From, mv.To, mv.Epoch, mv.Locks)
					}
				}
			}
		}()
		fmt.Printf("netlockd: fabric balancer ticking every %v\n", cfg.rebalanceEvery)
	}

	if cfg.metrics != "" {
		maddr, err := serveFabricMetrics(cfg.metrics, reg, f)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		fmt.Printf("netlockd: metrics on http://%s/metrics\n", maddr)
	}

	fmt.Printf("netlockd: fabric of %d racks x %d shards (map epoch %d)\n", cfg.racks, cfg.shards, m.Epoch)
	for i := 0; i < f.Racks(); i++ {
		addrs := f.Rack(i).Controller().Addrs()
		fmt.Printf("netlockd: rack %d switch on %s\n", i, addrs[0])
		for j, a := range addrs[1:] {
			fmt.Printf("netlockd: rack %d chain member %d on %s\n", i, j+1, a)
		}
	}
	fmt.Printf("netlockd: %d locks preinstalled (%d slots each)\n", installed, cfg.slotsPerLock)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("netlockd: shutting down")
}

// serveFabricMetrics is the fabric-wide scrape: the merged obs stripes
// plus occupancy summed across every rack's head.
func serveFabricMetrics(addr string, reg *obs.Registry, f *fabric.Fabric) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sn := reg.Snapshot()
		var slots, resident, pending float64
		for i := 0; i < f.Racks(); i++ {
			s := f.Rack(i).Head().Snapshot()
			slots += float64(s.SlotsInUse)
			resident += float64(s.ResidentLocks)
			pending += float64(s.PendingAcquires)
		}
		sn.AddGauge("switch_slots_in_use", "Occupied switch shared-queue slots, fabric-wide.", slots)
		sn.AddGauge("switch_resident_locks", "Locks resident in switch data planes, fabric-wide.", resident)
		sn.AddGauge("switch_pending_acquires", "Acquires whose grant has not yet reached a client.", pending)
		sn.AddGauge("fabric_racks", "Racks in the fabric.", float64(f.Racks()))
		sn.AddGauge("fabric_map_epoch", "Current shard-map epoch.", float64(f.Controller().Epoch()))
		sn.AddGauge("fabric_rehomes", "Completed shard re-homes.", float64(len(f.Controller().History())))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := sn.WriteProm(w); err != nil {
			log.Printf("metrics: write: %v", err)
		}
	})
	go http.Serve(ln, nil)
	return ln.Addr().String(), nil
}
