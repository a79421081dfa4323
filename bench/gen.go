package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netlock/internal/transport"
)

// env is what every generator of one run shares.
type env struct {
	in   *instance
	ctl  *control
	hold *holders
	seed int64
}

// runGenerators starts the workload's generators against in and returns
// when every one of them has drained its in-flight ops (after ctl.stop, or
// once the budget is spent). It returns one recorder per generator.
func runGenerators(e *env) []*recorder {
	n := e.in.workers
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		recs[w] = newRecorder(w, e.ctl.nWin)
		src := e.in.s.source(e.seed, w, e.in.procs)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if e.in.s.kind == genAsync {
				newAsyncGen(e, recs[w], src, e.in.s.inflight/n).run()
			} else {
				runBlocking(e, recs[w], src)
			}
		}(w)
	}
	wg.Wait()
	return recs
}

// --- blocking callers: emb_* and udp_tpcc ---

// runBlocking is one closed-loop caller: take the next lock set, acquire
// its locks one blocking call at a time, release them all, repeat. A lock
// set is one lock on the micro workloads and a transaction on udp_tpcc.
func runBlocking(e *env, r *recorder, src opSource) {
	s, ctl := e.in.s, e.ctl
	var dctx deadlineCtx
	var ctx context.Context = context.Background()
	if s.udp {
		// The embedded Manager loses no packet and enforces no deadline; a
		// hang there is caught by the run's watchdog instead.
		ctx = &dctx
	}
	type heldLock struct {
		g     releaser
		req   lockReq
		timed bool
	}
	var set []lockReq
	held := make([]heldLock, 0, 32)
	sample, stride := uint64(s.sample), uint64(s.spanStride)
	var n uint64
	for !ctl.stop.Load() && (ctl.budget == 0 || int(n) < ctl.budget) {
		set = src.next(set[:0])
		held = held[:0]
		txnStart := now()
		// On udp_tpcc the spans of a sampled transaction hang off one txn
		// span, closed at commit.
		txnSpan, txnIdx := uint32(0), -1
		spanTxn := ctl.traced && s.tpcc && r.txnCount%stride == 0
		if spanTxn {
			txnIdx = len(r.spans)
			txnSpan = r.addSpan("txn", 0, txnStart, txnStart, 0, r.txnCount)
		}
		committed := true
		for _, req := range set {
			n++
			r.attempted++
			timed := n%sample == 0
			var t0 int64
			if timed || s.udp {
				t0 = now()
				dctx.d = base.Add(opDeadline + time.Duration(t0))
			}
			g, subEnd, err := e.in.acquire(ctx, req, ctl.traced && timed)
			if err != nil {
				r.failed++
				committed = false
				break
			}
			r.granted++
			if !e.hold.grant(req.id, req.excl) {
				r.violate(fmt.Sprintf("lock %d granted (excl=%v) while already held", req.id, req.excl))
			}
			held = append(held, heldLock{g, req, timed})
			if !timed {
				continue
			}
			t1 := now()
			r.sample(ctl.win.Load(), t1-t0)
			if !ctl.traced {
				continue
			}
			if !s.udp {
				subEnd = t1 // the embedded call is submit and wait in one
			}
			r.submitNs += subEnd - t0
			r.submitN++
			if spanTxn || (!s.tpcc && uint64(r.submitN)%stride == 0) {
				op := r.addSpan("acquire", txnSpan, t0, t1, req.id, n)
				if s.udp {
					r.addSpan("submit", op, t0, subEnd, req.id, n)
					r.addSpan("wait", op, subEnd, t1, req.id, n)
				}
			}
		}
		// Commit (or abort after a failed acquire): release everything held.
		for _, h := range held {
			e.hold.release(h.req.id, h.req.excl)
			if ctl.traced && h.timed {
				t0 := now()
				h.g.Release()
				t1 := now()
				r.releaseNs += t1 - t0
				r.releaseN++
				if spanTxn || (!s.tpcc && uint64(r.releaseN)%stride == 0) {
					r.addSpan("release", txnSpan, t0, t1, h.req.id, n)
				}
			} else {
				h.g.Release()
			}
			r.done(ctl.win.Load())
		}
		if committed && s.tpcc {
			end := now()
			r.txnDone(ctl.win.Load(), end-txnStart, len(set))
			if txnIdx >= 0 {
				r.spans[txnIdx].end = end
			}
		}
	}
}

// --- async generators: udp_shared, udp_excl_hot, udp_server, udp_chain3 ---

// slot is one in-flight position of an async generator's window.
type slot struct {
	req   lockReq
	seq   uint64
	state atomic.Int32 // 0 idle, 1 submitted, 2 completed
	start int64
	sub   int64 // submit call returned (traced run)
	done  int64 // grant delivered
	g     *transport.Grant
	err   error
	ctx   deadlineCtx
	cb    func(*transport.Grant, error)
}

const (
	slotIdle int32 = iota
	slotSubmitted
	slotCompleted
)

// asyncGen keeps its share of the window in flight: completions arrive on a
// buffered channel, and the generator records the latency, releases, and
// re-issues — so ops are independent and no goroutine wakes per op.
type asyncGen struct {
	e     *env
	r     *recorder
	src   opSource
	slots []slot
	// done carries completed slot indexes; its capacity is the slot count,
	// so the client's read loop never blocks in a callback.
	done chan int32
	buf  []lockReq
	// doubles counts completions delivered for a slot that was not in
	// flight. Written from the client's goroutines.
	doubles atomic.Int64
}

func newAsyncGen(e *env, r *recorder, src opSource, window int) *asyncGen {
	g := &asyncGen{e: e, r: r, src: src, slots: make([]slot, window), done: make(chan int32, window)}
	for i := range g.slots {
		s := &g.slots[i]
		idx := int32(i)
		s.cb = func(gr *transport.Grant, err error) {
			s.done = now()
			s.g, s.err = gr, err
			if err == nil && !e.hold.grant(s.req.id, s.req.excl) {
				g.doubles.Add(1 << 32)
			}
			if !s.state.CompareAndSwap(slotSubmitted, slotCompleted) {
				g.doubles.Add(1)
				return
			}
			g.done <- idx
		}
	}
	return g
}

func (g *asyncGen) run() {
	ctl := g.e.ctl
	inflight := 0
	for i := range g.slots {
		if g.issue(int32(i)) {
			inflight++
		}
	}
	for inflight > 0 {
		idx := <-g.done
		g.complete(&g.slots[idx])
		if ctl.stop.Load() || (ctl.budget > 0 && int(g.r.attempted) >= ctl.budget) || !g.issue(idx) {
			inflight--
		}
	}
	if d := g.doubles.Load(); d != 0 {
		g.r.violate(fmt.Sprintf("%d completions for ops not in flight, %d grants of a lock already held", d&(1<<32-1), d>>32))
	}
}

// issue submits slot idx's next op; false means the submit itself failed.
func (g *asyncGen) issue(idx int32) bool {
	s := &g.slots[idx]
	g.buf = g.src.next(g.buf[:0])
	s.req = g.buf[0]
	g.r.attempted++
	s.seq = g.r.attempted
	s.state.Store(slotSubmitted)
	s.start = now()
	s.ctx.d = base.Add(opDeadline + time.Duration(s.start))
	err := g.e.in.cli.AcquireFunc(&s.ctx, s.req.id, s.req.mode(), s.cb)
	if g.e.ctl.traced {
		s.sub = now()
	}
	if err != nil {
		s.state.Store(slotIdle)
		g.r.failed++
		return false
	}
	return true
}

// complete records one finished op and releases its grant.
func (g *asyncGen) complete(s *slot) {
	r, ctl := g.r, g.e.ctl
	s.state.Store(slotIdle)
	if s.err != nil {
		r.failed++
		return
	}
	r.granted++
	w := ctl.win.Load()
	r.sample(w, s.done-s.start)
	ctl.completion(s.done)
	g.e.hold.release(s.req.id, s.req.excl)
	if !ctl.traced {
		s.g.Release()
		r.done(w)
		return
	}
	t0 := now()
	s.g.Release()
	t1 := now()
	r.done(w)
	r.submitNs += s.sub - s.start
	r.submitN++
	r.releaseNs += t1 - t0
	r.releaseN++
	if r.submitN%int64(g.e.in.s.spanStride) == 0 {
		op := r.addSpan("op", 0, s.start, t1, s.req.id, s.seq)
		r.addSpan("submit", op, s.start, s.sub, s.req.id, s.seq)
		r.addSpan("wait", op, s.sub, s.done, s.req.id, s.seq)
		r.addSpan("release", op, t0, t1, s.req.id, s.seq)
	}
}
