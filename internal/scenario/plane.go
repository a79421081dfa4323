package scenario

import (
	"context"
	"fmt"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// Handle is one held lock, satisfied by both *netlock.Grant and
// *transport.Grant.
type Handle interface {
	Txn() uint64
	Release()
}

// Plane is a runnable NetLock deployment: every scenario executes
// identically against the embedded sharded Manager and a UDP rack over
// the chaos network.
type Plane interface {
	Name() string
	// Acquire blocks until the lock is granted or ctx expires. worker
	// selects the issuing client on multi-client planes.
	Acquire(ctx context.Context, worker int, lockID uint32, mode netlock.Mode, opts ...netlock.AcquireOption) (Handle, error)
	Close()
}

// MetricsSource is the optional capability of planes exposing the obs
// snapshot.
type MetricsSource interface {
	Metrics() *obs.Snapshot
}

// FaultInjector is the optional capability of planes that can kill rack
// nodes mid-run: FailHead removes the current chain-head switch (udp
// plane, Switches >= 2) or drops all data-plane state (embedded plane);
// FailServer fails lock server i (the embedded plane reassigns its locks
// to server i+1, and refuses when there is none).
type FaultInjector interface {
	FailHead() error
	FailServer(i int) error
}

// PlaneConfig wires a Plane for one scenario run.
type PlaneConfig struct {
	Kind    string // "embedded" or "udp"
	Seed    int64
	Chaos   bool // udp only
	Workers int

	// Embedded configures the in-process Manager (Kind "embedded"). The
	// UDP rack takes its server count, priority count and Isolation from
	// it too, so both planes run the same rack.
	Embedded netlock.Config

	// DP sizes the rack's switch (Kind "udp"): its lock table, queue
	// slots and lease. Switches sets the replication chain length
	// (default 1, unreplicated).
	DP       switchdp.Config
	Switches int

	// SwitchLocks are preinstalled on either plane; Slots is the lock's
	// total queue slots, split across the priority banks.
	SwitchLocks []ctrlplane.SwitchLock
	Quotas      []ctrlplane.TenantQuota
}

// NewPlane builds the requested deployment.
func NewPlane(cfg PlaneConfig) (Plane, error) {
	switch cfg.Kind {
	case "embedded", "":
		return newEmbeddedPlane(cfg)
	case "udp":
		return newUDPPlane(cfg)
	}
	return nil, fmt.Errorf("scenario: unknown plane %q", cfg.Kind)
}

type embeddedPlane struct {
	m *netlock.Manager
}

func newEmbeddedPlane(cfg PlaneConfig) (*embeddedPlane, error) {
	m := netlock.New(cfg.Embedded)
	for _, q := range cfg.Quotas {
		m.SetTenantQuota(q.Tenant, q.PerSec, q.Burst)
	}
	for _, sl := range cfg.SwitchLocks {
		if err := m.Preinstall(sl.ID, sl.Slots); err != nil {
			m.Close()
			return nil, fmt.Errorf("scenario: preinstall lock %d: %w", sl.ID, err)
		}
	}
	return &embeddedPlane{m: m}, nil
}

func (p *embeddedPlane) Name() string { return "embedded" }

func (p *embeddedPlane) Acquire(ctx context.Context, _ int, lockID uint32, mode netlock.Mode, opts ...netlock.AcquireOption) (Handle, error) {
	g, err := p.m.Acquire(ctx, lockID, mode, opts...)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (p *embeddedPlane) Close() { p.m.Close() }

func (p *embeddedPlane) Metrics() *obs.Snapshot { return p.m.Metrics() }

// FailHead drops all switch data-plane state (the embedded Manager's ToR
// has no replica chain; held locks are reclaimed by lease expiry).
func (p *embeddedPlane) FailHead() error {
	p.m.FailSwitch()
	return nil
}

// FailServer reassigns server i's locks to server i+1 (§4.5).
func (p *embeddedPlane) FailServer(i int) error { return p.m.FailServer(i, i+1) }

// scenarioChaos is the edge profile scenarios run under: lighter than the
// conformance sweep's (scenario runs are long), still enough to force
// retransmits, dedup, and reordering on every run.
func scenarioChaos(seed int64) transport.ChaosConfig {
	return transport.ChaosConfig{Seed: seed, Drop: 0.05, Dup: 0.05, Delay: 0.20}
}

// udpPlane is a rack built through ctrlplane.Topology: a switch chain of
// cfg.Switches members over the chaos network, with per-worker clients
// configured with every member's address.
type udpPlane struct {
	tp      *ctrlplane.Topology
	clients []*transport.Client
}

func newUDPPlane(cfg PlaneConfig) (*udpPlane, error) {
	chaos := transport.ChaosConfig{Seed: cfg.Seed}
	if cfg.Chaos {
		chaos = scenarioChaos(cfg.Seed)
	}
	dp := cfg.DP
	dp.Priorities = max(cfg.Embedded.Priorities, 1)
	dp.Isolation = cfg.Embedded.Isolation
	tp, err := ctrlplane.New(ctrlplane.Config{
		Switches:    cfg.Switches,
		Servers:     cfg.Embedded.Servers,
		DataPlane:   dp,
		Chaos:       &chaos,
		SwitchLocks: cfg.SwitchLocks,
		Quotas:      cfg.Quotas,
	})
	if err != nil {
		return nil, err
	}
	p := &udpPlane{tp: tp}

	nClients := cfg.Workers
	if nClients > 4 {
		nClients = 4
	}
	if nClients < 1 {
		nClients = 1
	}
	for i := 0; i < nClients; i++ {
		c, err := tp.NewClient(transport.ClientConfig{
			RetryInterval: 15 * time.Millisecond,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

func (p *udpPlane) Name() string { return "udp" }

func (p *udpPlane) Acquire(ctx context.Context, worker int, lockID uint32, mode netlock.Mode, opts ...netlock.AcquireOption) (Handle, error) {
	c := p.clients[worker%len(p.clients)]
	g, err := c.Acquire(ctx, lockID, mode, opts...)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// FailHead kills the current chain-head switch and reconfigures the
// survivors under a new epoch.
func (p *udpPlane) FailHead() error { return p.tp.Controller().FailHead() }

// FailServer kills lock server i in place.
func (p *udpPlane) FailServer(i int) error { return p.tp.FailServer(i) }

// Close tears the rack down (clients, switches, servers, chaos drain —
// Topology owns the ordering).
func (p *udpPlane) Close() { p.tp.Close() }
