package lockserver

import "fmt"

// RSSCore maps a lock ID to one of n receive queues, modeling the NIC's
// Receive Side Scaling dispatch that partitions requests between cores
// (§5). Deterministic so switch, servers and the testbed agree.
func RSSCore(lockID uint32, cores int) int {
	if cores <= 0 {
		panic("lockserver: non-positive core count")
	}
	// Fibonacci hashing spreads adjacent lock IDs across cores.
	return int((uint64(lockID) * 11400714819323198485) >> 32 % uint64(cores))
}

// Routing is the lock→server directory clients resolve (§4.1): a lock's
// home is its RSSCore partition over the server tier, then any redirects
// a drained or failed server left behind (§4.5). Every plane that routes
// to servers — the embedded manager, the rack controller, each switch
// node's send path — holds one. The zero redirect map costs Home a single
// missed lookup, and Home never allocates. Not safe for concurrent use.
type Routing struct {
	n        int
	redirect map[int]int
}

// NewRouting returns the directory for a tier of n servers.
func NewRouting(n int) Routing { return Routing{n: n} }

// Home returns the index of the server that owns lockID.
func (r *Routing) Home(lockID uint32) int { return r.Resolve(RSSCore(lockID, r.n)) }

// Resolve follows redirects from partition index i to a live server.
// Redirects never form a cycle (Check refuses one), so this terminates.
func (r *Routing) Resolve(i int) int {
	for {
		next, ok := r.redirect[i]
		if !ok {
			return i
		}
		i = next
	}
}

// Check validates redirecting server victim's partition to target and
// returns the server target resolves to, which is where victim's locks
// must go. It refuses out-of-range indexes, a self-redirect and a cycle.
func (r *Routing) Check(victim, target int) (int, error) {
	if victim < 0 || victim >= r.n || target < 0 || target >= r.n {
		return 0, fmt.Errorf("redirect %d -> %d out of range [0,%d)", victim, target, r.n)
	}
	if victim == target {
		return 0, fmt.Errorf("redirect %d -> %d: server cannot replace itself", victim, target)
	}
	to := r.Resolve(target)
	if to == victim {
		return 0, fmt.Errorf("redirect %d -> %d would cycle", victim, target)
	}
	return to, nil
}

// Redirect validates (see Check) and installs victim -> target, returning
// the server victim's partition now resolves to.
func (r *Routing) Redirect(victim, target int) (int, error) {
	to, err := r.Check(victim, target)
	if err != nil {
		return 0, err
	}
	if r.redirect == nil {
		r.redirect = make(map[int]int)
	}
	r.redirect[victim] = to
	return to, nil
}

// Grow widens the partition by one server and returns its index. Locks
// whose home changes must be moved before the grown directory is used;
// Grow touches only the width, so a caller can plan a growth on a copy
// and adopt the copy once the state has moved.
func (r *Routing) Grow() int {
	r.n++
	return r.n - 1
}
