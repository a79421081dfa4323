package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// base anchors the benchmark's own clock: every timestamp is nanoseconds
// since base, read from the monotonic clock.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// opDeadline bounds every acquire; an op that misses it counts as failed.
const opDeadline = 2 * time.Second

// deadlineCtx is a context that carries only a deadline. Both front ends
// read the deadline once at submit, and transport.Client enforces it from
// its sweep, so no timer or cancel function is needed per op — a
// context.WithTimeout per op would put an allocation and a runtime timer
// into every measured acquire.
type deadlineCtx struct{ d time.Time }

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.d, true }
func (*deadlineCtx) Done() <-chan struct{}         { return nil }
func (*deadlineCtx) Err() error                    { return nil }
func (*deadlineCtx) Value(any) any                 { return nil }

// control is what the coordinator shares with the generators. win is the
// current timed window: -1 during warm-up, 0..n-1 inside the timed windows,
// n afterwards.
type control struct {
	win    atomic.Int32
	nWin   int
	stop   atomic.Bool
	traced bool
	// budget, when positive, ends each generator after that many ops (the
	// set-up phase completes a fixed number of ops to prove the rack
	// serves).
	budget int

	// The head-kill phase of udp_chain3 tracks the longest gap between
	// consecutive completions across all generators.
	failPhase atomic.Bool
	lastDone  atomic.Int64
	maxGap    atomic.Int64
}

// completion feeds the head-kill outage gauge.
func (c *control) completion(t int64) {
	if !c.failPhase.Load() {
		return
	}
	prev := c.lastDone.Swap(t)
	gap := t - prev
	for {
		cur := c.maxGap.Load()
		if gap <= cur || c.maxGap.CompareAndSwap(cur, gap) {
			return
		}
	}
}

// span is one traced call the benchmark made into the system.
type span struct {
	name   string
	id     uint32
	parent uint32
	start  int64
	end    int64
	lock   uint32
	op     uint64 // lock acquisition or transaction sequence number
}

// recorder is one generator's private measurement state; nothing in it is
// shared while the generator runs.
type recorder struct {
	gen       int
	attempted uint64
	failed    uint64
	granted   uint64     // acquires granted since the generator started
	ops       []uint64   // completed acquire→release pairs per window
	lat       [][]uint32 // acquire latency samples (ns) per window
	txns      []uint64   // committed transactions per window
	txnLat    [][]uint32 // transaction latency samples (ns) per window
	txnLocks  uint64     // lock acquisitions made inside committed transactions
	txnCount  uint64

	// Traced run: time spent inside the calls, summed over every timed op.
	submitNs, submitN   int64
	releaseNs, releaseN int64
	spans               []span
	spanSeq             uint32
	violations          []string
}

func newRecorder(gen, nWin int) *recorder {
	r := &recorder{gen: gen, ops: make([]uint64, nWin), txns: make([]uint64, nWin)}
	r.lat = make([][]uint32, nWin)
	r.txnLat = make([][]uint32, nWin)
	return r
}

func clampNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// done counts one completed acquire→release pair in window w.
func (r *recorder) done(w int32) {
	if w >= 0 && int(w) < len(r.ops) {
		r.ops[w]++
	}
}

// sample records one acquire latency in window w.
func (r *recorder) sample(w int32, ns int64) {
	if w >= 0 && int(w) < len(r.lat) {
		r.lat[w] = append(r.lat[w], clampNs(ns))
	}
}

func (r *recorder) txnDone(w int32, ns int64, locks int) {
	r.txnCount++
	r.txnLocks += uint64(locks)
	if w >= 0 && int(w) < len(r.txns) {
		r.txns[w]++
		r.txnLat[w] = append(r.txnLat[w], clampNs(ns))
	}
}

func (r *recorder) violate(msg string) {
	if len(r.violations) < 8 {
		r.violations = append(r.violations, msg)
	}
}

// addSpan appends a span and returns its id; ids are unique per generator
// and made unique per run by the generator index in the high bits.
func (r *recorder) addSpan(name string, parent uint32, start, end int64, lock uint32, op uint64) uint32 {
	r.spanSeq++
	id := uint32(r.gen)<<24 | r.spanSeq&(1<<24-1)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: start, end: end, lock: lock, op: op})
	return id
}

// holders is the per-lock holder flag of the correctness oracle: -1 while
// an exclusive grant is held, n > 0 while n shared grants are held. It is
// set when a grant is delivered and cleared before Release is called, so the
// flagged interval lies inside the true hold and any overlap it sees is a
// real double grant.
type holders struct {
	dense []paddedFlag // lock IDs below len(dense)
	mu    sync.Mutex   // sparse IDs (TPC-C's 32-bit table|key space)
	rest  map[uint32]int32
}

// paddedFlag keeps neighbouring lock IDs, which emb_disjoint hands to
// different goroutines, on different cache lines.
type paddedFlag struct {
	v atomic.Int32
	_ [60]byte
}

func newHolders(denseIDs int) *holders {
	return &holders{dense: make([]paddedFlag, denseIDs), rest: make(map[uint32]int32)}
}

// grant flags lock id as held and reports whether that was legal.
func (h *holders) grant(id uint32, excl bool) bool {
	if int(id) < len(h.dense) {
		f := &h.dense[id].v
		if excl {
			return f.CompareAndSwap(0, -1)
		}
		return f.Add(1) > 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.rest[id]
	if excl {
		if cur != 0 {
			return false
		}
		h.rest[id] = -1
		return true
	}
	h.rest[id] = cur + 1
	return cur >= 0
}

func (h *holders) release(id uint32, excl bool) {
	d := int32(-1)
	if excl {
		d = 1
	}
	if int(id) < len(h.dense) {
		h.dense[id].v.Add(d)
		return
	}
	h.mu.Lock()
	if v := h.rest[id] + d; v == 0 {
		delete(h.rest, id)
	} else {
		h.rest[id] = v
	}
	h.mu.Unlock()
}

// held reports how many locks are still flagged; zero after a clean drain.
func (h *holders) held() int {
	n := 0
	for i := range h.dense {
		if h.dense[i].v.Load() != 0 {
			n++
		}
	}
	h.mu.Lock()
	n += len(h.rest)
	h.mu.Unlock()
	return n
}

// --- small statistics helpers ---

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqrFrac is the inter-quartile spread of v as a share of its median.
func iqrFrac(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / m
}

// percentileNs returns the q-th percentile (nearest rank) of sorted samples.
func percentileNs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// mergeSorted gathers window w's samples from every recorder, sorted.
func mergeSorted(recs []*recorder, w int, pick func(*recorder) [][]uint32) []uint32 {
	var all []uint32
	for _, r := range recs {
		all = append(all, pick(r)[w]...)
	}
	slices.Sort(all)
	return all
}
