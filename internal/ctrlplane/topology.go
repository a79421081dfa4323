package ctrlplane

import (
	"fmt"
	"time"

	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// SwitchLock pre-installs a switch-resident lock before traffic. Slots is
// the lock's total queue slots, split across the priority banks exactly as
// the embedded Manager's Preinstall splits them (rounded up to one slot
// per bank, remainder to the low banks) and placed first-fit by the
// controller's layout.
type SwitchLock struct {
	ID    uint32
	Slots int
}

// TenantQuota configures one tenant's ingress meter.
type TenantQuota struct {
	Tenant uint8
	PerSec float64
	Burst  float64
}

// Config describes a rack for New.
type Config struct {
	// Switches is the chain length (1-3; default 1 — an unreplicated
	// switch).
	Switches int
	// Servers is the lock-server count (default 2); locks partition
	// across them by lockserver.RSSCore.
	Servers int
	// DataPlane configures each member's switch program. The obs stripe,
	// if any, is attached to member 0 only: the chain processes every op
	// once per member, and counting it once keeps obs equal to what one
	// switch sees.
	DataPlane switchdp.Config
	// Server configures each lock server.
	Server lockserver.Config
	// Chaos, when non-nil, builds the rack on a fresh chaos network with
	// this profile; in-rack links (servers, chain members) are marked
	// reliable, matching the paper's in-rack fabric assumption. Ignored
	// when Net is set.
	Chaos *transport.ChaosConfig
	// Net is an explicit socket factory; nil (with nil Chaos) means real
	// UDP on loopback.
	Net transport.Network
	// Listen is the bind address pattern (default "127.0.0.1:0" on UDP,
	// "10.99.0.1:0" on a chaos network).
	Listen string
	// HeadListen, when set, is the bind address for chain member 0 (the
	// initial head) only — a daemon can advertise a stable address while
	// the rest of the rack takes ephemeral ports.
	HeadListen string
	// SweepInterval passes through to each switch.
	SweepInterval time.Duration
	// SwitchLocks are installed chain-wide before New returns.
	SwitchLocks []SwitchLock
	// Quotas are configured chain-wide before New returns. With a
	// replicated chain the meter moves to the head's ingress.
	Quotas []TenantQuota
}

// Topology is a running rack: the switch chain, its lock servers, the
// controller reconfiguring them, and any clients built through NewClient.
type Topology struct {
	cn *transport.ChaosNet
	// ownsNet records whether New created the chaos network; a shared
	// network (a multi-rack fabric) is drained by whoever built it, not by
	// each rack's Close.
	ownsNet  bool
	net      transport.Network
	ctrl     *Controller
	switches []*transport.Switch
	servers  []*transport.Server
	clients  []*transport.Client

	// listen and serverCfg are kept so AddServer can start new lock
	// servers identical to the originals.
	listen    string
	serverCfg lockserver.Config
}

// New builds and starts a rack. On error everything already started is
// torn down.
func New(cfg Config) (*Topology, error) {
	nsw := cfg.Switches
	if nsw == 0 {
		nsw = 1
	}
	if nsw < 1 || nsw > 3 {
		return nil, fmt.Errorf("ctrlplane: chain length %d out of range [1,3]", nsw)
	}
	nsrv := cfg.Servers
	if nsrv == 0 {
		nsrv = 2
	}
	t := &Topology{net: cfg.Net}
	listen := cfg.Listen
	if t.net == nil {
		if cfg.Chaos != nil {
			t.cn = transport.NewChaosNet(*cfg.Chaos)
			t.ownsNet = true
			t.net = t.cn
			if listen == "" {
				listen = "10.99.0.1:0"
			}
		} else {
			t.net = transport.UDP
		}
	} else if cn, ok := t.net.(*transport.ChaosNet); ok {
		// A rack built on a shared chaos network (a multi-rack fabric)
		// still gets reliable in-rack links; only the network's creator
		// drains it on teardown.
		t.cn = cn
		if listen == "" {
			listen = "10.99.0.1:0"
		}
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	t.listen, t.serverCfg = listen, cfg.Server
	fail := func(err error) (*Topology, error) {
		t.Close()
		return nil, err
	}

	var srvAddrs []string
	for i := 0; i < nsrv; i++ {
		srv, err := transport.NewServer(transport.ServerConfig{
			Listen: listen, Config: cfg.Server, Net: t.net,
		})
		if err != nil {
			return fail(err)
		}
		t.servers = append(t.servers, srv)
		srvAddrs = append(srvAddrs, srv.Addr())
		if t.cn != nil {
			if err := t.cn.MarkReliable(srv.Addr()); err != nil {
				return fail(err)
			}
		}
	}

	for i := 0; i < nsw; i++ {
		dp := cfg.DataPlane
		if i > 0 {
			dp.Obs = nil // the chain sees each op once; count it once
		}
		swListen := listen
		if i == 0 && cfg.HeadListen != "" {
			swListen = cfg.HeadListen
		}
		sw, err := transport.NewSwitch(transport.SwitchConfig{
			Listen:        swListen,
			DataPlane:     dp,
			Servers:       srvAddrs,
			SweepInterval: cfg.SweepInterval,
			Net:           t.net,
		})
		if err != nil {
			return fail(err)
		}
		t.switches = append(t.switches, sw)
		if t.cn != nil {
			if err := t.cn.MarkReliable(sw.Addr()); err != nil {
				return fail(err)
			}
		}
	}

	ctrl, err := NewController(t.switches, t.servers, cfg.DataPlane.Isolation)
	if err != nil {
		return fail(err)
	}
	t.ctrl = ctrl

	for _, sl := range cfg.SwitchLocks {
		if err := ctrl.InstallLock(sl.ID, uint64(sl.Slots)); err != nil {
			return fail(fmt.Errorf("ctrlplane: install lock %d: %w", sl.ID, err))
		}
	}
	for _, q := range cfg.Quotas {
		ctrl.SetTenantQuota(q.Tenant, q.PerSec, q.Burst)
	}
	return t, nil
}

// NewClient builds a client wired to this rack: the chain member
// addresses (head first) and the rack's network are filled in; the rest
// of cfg (batching, retry cadence, OnFailover) passes through. The client
// is closed by Topology.Close.
func (t *Topology) NewClient(cfg transport.ClientConfig) (*transport.Client, error) {
	cfg.Switches = t.ctrl.Addrs()
	cfg.Net = t.net
	c, err := transport.NewClientConfig(cfg)
	if err != nil {
		return nil, err
	}
	t.clients = append(t.clients, c)
	return c, nil
}

// Controller returns the chain's reconfiguration authority.
func (t *Topology) Controller() *Controller { return t.ctrl }

// Head returns the current chain head.
func (t *Topology) Head() *transport.Switch { return t.ctrl.Head() }

// Switches returns the chain members still live, head first.
func (t *Topology) Switches() []*transport.Switch { return t.ctrl.Members() }

// Servers returns the rack's lock servers.
func (t *Topology) Servers() []*transport.Server { return t.servers }

// Net returns the rack's socket factory (for wiring extra endpoints onto
// the same fabric).
func (t *Topology) Net() transport.Network { return t.net }

// Chaos returns the rack's chaos network, or nil when the rack runs on
// real UDP or an externally supplied Network.
func (t *Topology) Chaos() *transport.ChaosNet { return t.cn }

// AddServer starts a new lock server on the rack's fabric and hands it to
// the controller, which migrates the rehashed partition onto it and flips
// routing. Returns the new server's index.
func (t *Topology) AddServer() (int, error) {
	srv, err := transport.NewServer(transport.ServerConfig{
		Listen: t.listen, Config: t.serverCfg, Net: t.net,
	})
	if err != nil {
		return 0, err
	}
	if t.cn != nil {
		if err := t.cn.MarkReliable(srv.Addr()); err != nil {
			srv.Close()
			return 0, err
		}
	}
	if err := t.ctrl.AddServer(srv); err != nil {
		srv.Close()
		return 0, err
	}
	t.servers = append(t.servers, srv)
	return len(t.servers) - 1, nil
}

// FailServer closes lock server i in place (its address stays in the
// switches' forwarding tables — the rack behaves as if the node died).
func (t *Topology) FailServer(i int) error {
	if i < 0 || i >= len(t.servers) {
		return fmt.Errorf("ctrlplane: fail server %d of %d", i, len(t.servers))
	}
	return t.servers[i].Close()
}

// Close tears the rack down: clients first (their abandon path
// auto-releases raced-in grants), then the switches, then the servers,
// then the chaos drain so no delayed delivery races a WaitGroup.
func (t *Topology) Close() {
	for _, c := range t.clients {
		c.Close()
	}
	for _, sw := range t.switches {
		sw.Close()
	}
	for _, srv := range t.servers {
		srv.Close()
	}
	if t.cn != nil && t.ownsNet {
		t.cn.Wait()
	}
}
