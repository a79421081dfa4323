// Package ctrlplane is the rack-level control plane: the Topology builder
// assembles a NetLock rack — lock servers, a switch chain of 1-3 replicas,
// clients — on any transport.Network, and the Controller performs the
// runtime reconfigurations NetChain-style replication needs (§4.6 of the
// paper sketches switch failover; DESIGN.md §12 details our protocol):
// failing a member, re-fencing the survivors under a new epoch, healing
// replication gaps, and re-pointing the lock servers at the new head.
//
// Every rack consumer — conformance tests, scenario planes, benchmarks,
// the daemons — builds through Topology, so chain wiring decisions
// (replica roles, meter placement, reliable in-rack links, epoch numbers)
// live here exactly once.
//
// The Controller is also the rack's placement authority, and it places
// through the same pieces the embedded core.Manager does: a core.Layout
// carves each lock's per-bank queue regions from a slot count (a
// SwitchLock's Slots is the lock's total, split across the priority
// banks), a lockserver.Routing resolves each lock's home server, and
// core.MergeDemands turns the rack's gauges into allocator demands.
package ctrlplane

import (
	"fmt"
	"sync"

	"netlock/internal/core"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// Controller drives a live switch chain. It is the reconfiguration
// authority: it owns the epoch counter, and members only change roles
// through it. Safe for concurrent use.
type Controller struct {
	mu          sync.Mutex
	members     []*transport.Switch // index 0 is the head, last is the tail
	servers     []*transport.Server
	epoch       uint64
	meterAtHead bool

	// layout records every switch-resident lock's queue regions (one per
	// bank). The controller is the only region allocator on a live rack —
	// InstallLock and the live-move entry points (migrate.go) keep it
	// current — and it lays regions out exactly as the embedded Manager
	// does.
	layout *core.Layout
	// route is the lock→server directory, drain redirects included. It
	// mirrors the send-side copy every chain member holds.
	route lockserver.Routing
}

// NewController wires members (head first) into a chain at epoch 1 and
// points every server at the head. A single member degenerates to an
// unreplicated switch.
func NewController(members []*transport.Switch, servers []*transport.Server, meterAtHead bool) (*Controller, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ctrlplane: chain needs at least one switch")
	}
	c := &Controller{
		members:     append([]*transport.Switch(nil), members...),
		servers:     append([]*transport.Server(nil), servers...),
		epoch:       1,
		meterAtHead: meterAtHead && len(members) > 1,
		route:       lockserver.NewRouting(len(servers)),
	}
	members[0].WithDataPlane(func(dp *switchdp.Switch) {
		c.layout = core.NewLayout(dp.Banks(), uint64(dp.BankSlots()))
	})
	if c.meterAtHead {
		// Quota decisions consult the wall clock, so replicas metering
		// independently would diverge: bypass the in-pipeline meter on
		// every member and let the head (whoever that is after any
		// reconfiguration) meter once at ingress.
		for _, m := range c.members {
			m.WithDataPlane(func(dp *switchdp.Switch) {
				dp.CtrlSetMeterBypass(true)
			})
		}
	}
	if err := c.reconfigure(); err != nil {
		return nil, err
	}
	return c, nil
}

// Epoch returns the current chain epoch.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Head returns the current head member.
func (c *Controller) Head() *transport.Switch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[0]
}

// Members returns the live members, head first.
func (c *Controller) Members() []*transport.Switch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*transport.Switch(nil), c.members...)
}

// Addrs returns the live members' addresses, head first — the list a
// multi-address client should be configured with.
func (c *Controller) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrsLocked()
}

func (c *Controller) addrsLocked() []string {
	addrs := make([]string, len(c.members))
	for i, m := range c.members {
		addrs[i] = m.Addr()
	}
	return addrs
}

// Fail removes member i from the chain: the member is closed, the epoch
// advances, and the survivors are re-fenced. Failing the last member is
// refused — a chain cannot shrink to nothing.
func (c *Controller) Fail(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("ctrlplane: fail member %d of %d", i, len(c.members))
	}
	if len(c.members) == 1 {
		return fmt.Errorf("ctrlplane: cannot fail the last chain member")
	}
	c.members[i].Close()
	c.members = append(c.members[:i], c.members[i+1:]...)
	c.epoch++
	return c.reconfigure()
}

// FailHead fails member 0, the common switch-failure drill: the next
// member is promoted and announces the new epoch to in-flight clients.
func (c *Controller) FailHead() error { return c.Fail(0) }

// reconfigure pushes the current membership to every member under the
// current epoch, heals replication gaps between adjacent members, and
// re-points the lock servers at the head. Caller holds c.mu.
func (c *Controller) reconfigure() error {
	addrs := c.addrsLocked()
	last := len(c.members) - 1
	// Roles are pushed tail-first: a member only forwards to a successor
	// already fenced to the new epoch, so nothing sequenced during the
	// push is dropped by a stale successor.
	for i := last; i >= 0; i-- {
		r := transport.ChainRole{
			Epoch:       c.epoch,
			Head:        i == 0,
			Tail:        i == last,
			MeterAtHead: c.meterAtHead,
		}
		if i < last {
			r.Succ = addrs[i+1]
		}
		if i > 0 {
			r.HeadAddr = addrs[0]
		}
		for j, a := range addrs {
			if j != i {
				r.Peers = append(r.Peers, a)
			}
		}
		if err := c.members[i].ChainConfigure(r); err != nil {
			return err
		}
	}
	// Heal gaps front to back: each member replays its log past the
	// successor's applied prefix, so ops sequenced under the old epoch but
	// not yet fully propagated reach every survivor.
	for i := 0; i < last; i++ {
		succ := c.members[i+1].ChainStatus()
		c.members[i].ChainReplay(succ.Applied)
	}
	for _, srv := range c.servers {
		if err := srv.SetSwitchAddr(addrs[0]); err != nil {
			return err
		}
	}
	return nil
}

// InstallLock makes lockID switch-resident chain-wide with slots total
// queue slots: the controller's layout splits them across the priority
// banks and places the regions, which are installed in every member's
// data plane (each replica must be able to apply the same op stream), and
// the owning lock server releases ownership.
func (c *Controller) InstallLock(lockID uint32, slots uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sizes, _ := c.layout.Split(slots, nil)
	regions, err := c.layout.Reserve(lockID, sizes)
	if err != nil {
		return err
	}
	for _, m := range c.members {
		m.WithDataPlane(func(dp *switchdp.Switch) {
			if e := dp.CtrlInstallLock(lockID, regions); e != nil && err == nil {
				err = e
			}
		})
	}
	if err != nil {
		c.layout.Release(lockID)
		return err
	}
	if len(c.servers) > 0 {
		srv := c.servers[c.route.Home(lockID)]
		srv.WithLockServer(func(ls *lockserver.Server) {
			err = ls.CtrlReleaseOwnership(lockID)
		})
	}
	return err
}

// SetTenantQuota configures one tenant's quota chain-wide. With the meter
// at the head (replicated chains) the tokens are consumed at ingress; the
// per-member data planes still receive the rate so a promoted head
// inherits it.
func (c *Controller) SetTenantQuota(tenant uint8, perSec, burst float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setTenantQuotaLocked(tenant, perSec, burst)
}

func (c *Controller) setTenantQuotaLocked(tenant uint8, perSec, burst float64) {
	for _, m := range c.members {
		m.WithDataPlane(func(dp *switchdp.Switch) {
			dp.CtrlSetTenantQuota(tenant, perSec, burst)
		})
	}
}

// ApplyPolicy pushes a batch of per-tenant quota caps through the chain as
// one epoch-fenced update: the whole batch is validated first, then lands
// on every member — including the head's ingress meter — while the
// reconfiguration lock is held, so no failover (which serializes on the
// same lock and advances the epoch) can interleave a member between old
// and new caps. The epoch the batch applied under is returned, so callers
// can correlate a mid-run quota cut against their traces and obs counters.
func (c *Controller) ApplyPolicy(quotas []TenantQuota) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range quotas {
		// The data-plane meter rejects these configurations by panicking;
		// validate the whole batch before any member sees any of it, so a
		// bad policy cannot land half-applied.
		if q.PerSec < 0 || q.Burst <= 0 {
			return c.epoch, fmt.Errorf("ctrlplane: invalid quota for tenant %d: %g/s burst %g", q.Tenant, q.PerSec, q.Burst)
		}
	}
	for _, q := range quotas {
		c.setTenantQuotaLocked(q.Tenant, q.PerSec, q.Burst)
	}
	return c.epoch, nil
}
