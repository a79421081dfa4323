// Package fabric assembles a multi-rack NetLock deployment: N independent
// racks (each a ctrlplane.Topology — its own switch chain and lock
// servers) sharing one lock space, partitioned by an epoch-versioned
// wire.ShardMap. The paper scales a single switch's SRAM (§4.4); the
// fabric scales past one switch entirely, the way NetChain shards its
// key space across switch groups: every lock has exactly one home rack at
// any instant, clients route by shard map, and the fabric controller
// re-homes shards between racks behind an epoch fence so no transaction
// is ever live in two racks.
package fabric

import (
	"fmt"

	"netlock/internal/ctrlplane"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

// Config describes a fabric for New.
type Config struct {
	// Racks is the rack count (default 2).
	Racks int
	// Shards is the shard-map granularity (default 64). Shards, not locks,
	// are the unit of re-homing.
	Shards int
	// Rack is the per-rack topology template: chain length, server count,
	// data plane, quotas. Net and Chaos are owned by the fabric and must
	// be left zero.
	Rack ctrlplane.Config
	// Chaos, when non-nil, builds every rack on one shared chaos network
	// with this profile — in-rack links stay reliable (the racks mark
	// their own members), while client↔rack traffic crosses the lossy
	// fabric. Ignored when Net is set.
	Chaos *transport.ChaosConfig
	// Net is an explicit socket factory shared by every rack; nil (with
	// nil Chaos) means real UDP on loopback.
	Net transport.Network
}

// Fabric is a running multi-rack deployment.
type Fabric struct {
	net     transport.Network
	cn      *transport.ChaosNet // non-nil only when the fabric created it
	racks   []*ctrlplane.Topology
	ctrl    *Controller
	clients []*transport.Client
}

// New builds and starts a fabric: every rack is brought up on the shared
// network and the initial shard map (epoch 1, shards striped round-robin
// across racks) is installed chain-wide everywhere before any client can
// exist. On error everything already started is torn down.
func New(cfg Config) (*Fabric, error) {
	nracks := cfg.Racks
	if nracks == 0 {
		nracks = 2
	}
	if nracks < 1 || nracks > wire.MaxRacks {
		return nil, fmt.Errorf("fabric: rack count %d out of range [1,%d]", nracks, wire.MaxRacks)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 64
	}
	if cfg.Rack.Net != nil || cfg.Rack.Chaos != nil {
		return nil, fmt.Errorf("fabric: Rack.Net/Chaos are fabric-owned; set Config.Chaos or Config.Net")
	}
	m, err := wire.NewShardMap(nracks, shards)
	if err != nil {
		return nil, err
	}
	m.Epoch = 1

	f := &Fabric{net: cfg.Net}
	if f.net == nil && cfg.Chaos != nil {
		f.cn = transport.NewChaosNet(*cfg.Chaos)
		f.net = f.cn
	}
	fail := func(err error) (*Fabric, error) {
		f.Close()
		return nil, err
	}
	for i := 0; i < nracks; i++ {
		rc := cfg.Rack
		rc.Net = f.net // nil stays nil: each rack then uses real UDP
		tp, err := ctrlplane.New(rc)
		if err != nil {
			return fail(fmt.Errorf("fabric: rack %d: %w", i, err))
		}
		f.racks = append(f.racks, tp)
		tp.Controller().SetShardMap(m, i)
	}
	f.ctrl = newController(f.racks, m)
	return f, nil
}

// Controller returns the fabric-level reconfiguration authority.
func (f *Fabric) Controller() *Controller { return f.ctrl }

// Rack returns rack i's topology (for rack-local control: head snapshots,
// chain failover, server migration).
func (f *Fabric) Rack(i int) *ctrlplane.Topology { return f.racks[i] }

// Racks returns the rack count.
func (f *Fabric) Racks() int { return len(f.racks) }

// Net returns the fabric's shared socket factory (nil means real UDP).
func (f *Fabric) Net() transport.Network { return f.net }

// Chaos returns the shared chaos network, or nil when the fabric runs on
// real UDP or an externally supplied Network.
func (f *Fabric) Chaos() *transport.ChaosNet { return f.cn }

// NewClient builds a fabric-mode client: every rack's chain addresses
// (head first) and a snapshot of the current shard map are wired in; the
// map self-heals via wrong-rack bounces if it goes stale. The rest of cfg
// (batching, retry cadence, OnFailover) passes through. The client is
// closed by Fabric.Close.
func (f *Fabric) NewClient(cfg transport.ClientConfig) (*transport.Client, error) {
	racks := make([][]string, len(f.racks))
	for i, tp := range f.racks {
		racks[i] = tp.Controller().Addrs()
	}
	cfg.Fabric = &transport.FabricClientConfig{Racks: racks, Map: f.ctrl.Map()}
	cfg.Net = f.net
	c, err := transport.NewClientConfig(cfg)
	if err != nil {
		return nil, err
	}
	f.clients = append(f.clients, c)
	return c, nil
}

// Close tears the fabric down: clients first (their abandon path
// auto-releases raced-in grants), then every rack, then the shared chaos
// drain so no delayed delivery races a WaitGroup.
func (f *Fabric) Close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, tp := range f.racks {
		tp.Close()
	}
	if f.cn != nil {
		f.cn.Wait()
	}
}
