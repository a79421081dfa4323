package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// instance is one system under test, built fresh for a run: an embedded
// Manager, or a UDP rack with one client socket.
type instance struct {
	s       *spec
	procs   int
	workers int
	place   placement

	m *netlock.Manager // embedded plane

	tp  *ctrlplane.Topology // UDP plane
	cli *transport.Client
	// Obs registries, attached in the traced run only. One per component so
	// a client histogram never mixes with the switch's (the loadgen
	// discrepancy README.md documents).
	cliObs, swObs, srvObs *obs.Registry

	rackUp time.Duration
}

// up builds the system: rack or manager bring-up, placement solve, lock
// install, client creation. Everything here is set-up time.
func (s *spec) up(seed int64, procs int, traced bool) (*instance, error) {
	in := &instance{s: s, procs: procs, workers: s.nWorkers(procs)}
	in.place = s.place(seed, procs)
	if !s.udp {
		in.m = netlock.New(netlock.Config{Shards: procs, Metrics: traced})
		for _, l := range in.place.locks {
			if err := in.m.Preinstall(l.ID, l.Slots); err != nil {
				in.m.Close()
				return nil, err
			}
		}
		return in, nil
	}
	cfg := ctrlplane.Config{Switches: s.chain, DataPlane: in.place.dp, SwitchLocks: in.place.locks}
	var ccfg transport.ClientConfig
	if traced {
		in.cliObs = obs.New(obs.Config{})
		in.swObs = obs.New(obs.Config{})
		in.srvObs = obs.New(obs.Config{})
		cfg.DataPlane.Obs = in.swObs.Stripe(0)
		cfg.Server = lockserver.Config{Obs: in.srvObs.Stripe(0)}
		ccfg.Obs = in.cliObs.Stripe(0)
	}
	t0 := time.Now()
	tp, err := ctrlplane.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("rack bring-up: %w", err)
	}
	in.rackUp = time.Since(t0)
	in.tp = tp
	if in.cli, err = tp.NewClient(ccfg); err != nil {
		tp.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	return in, nil
}

func (in *instance) close() {
	if in.m != nil {
		in.m.Close()
		return
	}
	in.tp.Close() // closes the client too
}

// releaser is what both planes' grants have in common.
type releaser interface{ Release() }

// acquire is the blocking call of the genBlocking workloads. On the UDP
// plane it is Client.Acquire spelled out (AcquireAsync then Wait), so the
// traced run can time the submit separately; subEnd is when the submit
// returned.
func (in *instance) acquire(ctx context.Context, r lockReq, traced bool) (g releaser, subEnd int64, err error) {
	if in.m != nil {
		mg, err := in.m.Acquire(ctx, r.id, r.mode())
		return mg, 0, err
	}
	a, err := in.cli.AcquireAsync(ctx, r.id, r.mode())
	if err != nil {
		return nil, 0, err
	}
	if traced {
		subEnd = now()
	}
	tg, err := a.Wait(ctx)
	return tg, subEnd, err
}

// sysSnap is a point-in-time reading of every counter the per-layer metrics
// are built from; metrics are differences of two readings around the timed
// windows.
type sysSnap struct {
	t        int64
	cpuUser  time.Duration
	cpuSys   time.Duration
	mem      runtime.MemStats
	dpPkts   uint64         // packets through switchdp, summed over chain members
	tail     switchdp.Stats // the emitting member's data plane (embedded: all shards)
	srvPkts  uint64         // acquires+releases handled by lock servers
	grants   uint64         // grants issued by the rack: tail data plane + servers
	members  int
	gapDrops uint64
	logLen   int
	// Host CPU accounting from /proc/stat, in clock ticks over all CPUs:
	// ticks the hypervisor gave to somebody else, and all ticks.
	stealTicks, allTicks uint64
}

// hostTicks reads the aggregate cpu line of /proc/stat. On a VM a busy host
// shows up as steal; a run measured under steal is slower through no fault
// of the commit, so the run reports it. Zeros where /proc/stat is missing.
func hostTicks() (steal, all uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			all += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, all
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func (in *instance) snapshot() sysSnap {
	var sn sysSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		sn.cpuUser, sn.cpuSys = tvDur(ru.Utime), tvDur(ru.Stime)
	}
	runtime.ReadMemStats(&sn.mem)
	if in.m != nil {
		st := in.m.Stats()
		sn.tail = st.Switch
		sn.dpPkts = st.Switch.Acquires + st.Switch.Releases + st.Switch.Pushes
		sn.grants = st.Switch.GrantsImmediate + st.Switch.GrantsQueued
		for _, sv := range st.Servers {
			sn.srvPkts += sv.Acquires + sv.Releases
			sn.grants += sv.GrantsImmediate + sv.GrantsQueued
		}
		sn.members = 1
	} else {
		members := in.tp.Switches()
		sn.members = len(members)
		for i, sw := range members {
			st := sw.Snapshot().Stats
			sn.dpPkts += st.Acquires + st.Releases + st.Pushes
			cs := sw.ChainStatus()
			sn.gapDrops += cs.GapDrops
			if cs.LogLen > sn.logLen {
				sn.logLen = cs.LogLen
			}
			if i == len(members)-1 {
				sn.tail = st
			}
		}
		sn.grants = sn.tail.GrantsImmediate + sn.tail.GrantsQueued
		for _, srv := range in.tp.Servers() {
			srv.WithLockServer(func(ls *lockserver.Server) {
				st := ls.Stats()
				sn.srvPkts += st.Acquires + st.Releases
				sn.grants += st.GrantsImmediate + st.GrantsQueued
			})
		}
	}
	sn.stealTicks, sn.allTicks = hostTicks()
	sn.t = now()
	return sn
}

// drained polls until the system holds no trace of the run — every release
// acked, no pending acquire, no tracked grant, no occupied slot on any chain
// member — and returns what is still there when the deadline passes.
func (in *instance) drained(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		left := in.residue()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (in *instance) residue() []string {
	var left []string
	if in.m != nil {
		for _, g := range in.m.Metrics().Gauges {
			if g.Name == "switch_slots_in_use" && g.Value != 0 {
				left = append(left, fmt.Sprintf("embedded switch: %v slots in use after drain", g.Value))
			}
		}
		return left
	}
	for i, sw := range in.tp.Switches() {
		sn := sw.Snapshot()
		if sn.PendingAcquires != 0 || sn.TrackedGrants != 0 || sn.SlotsInUse != 0 || sn.PendingReleases != 0 {
			left = append(left, fmt.Sprintf("chain member %d after drain: pending_acquires=%d tracked_grants=%d slots_in_use=%d pending_releases=%d",
				i, sn.PendingAcquires, sn.TrackedGrants, sn.SlotsInUse, sn.PendingReleases))
		}
	}
	return left
}
