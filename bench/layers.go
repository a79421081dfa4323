package main

import (
	"net/netip"
	"runtime"
	"time"

	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/p4sim"
	"netlock/internal/sharedqueue"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// The isolated-layer replays drive each layer's public entry point with the
// op stream the workload's first generator produces from the same seed —
// nothing else of the system runs — and report mean cost per call. They say
// what a layer costs when it is all that runs; the in-situ counters say how
// often the workload calls it.

// layerCosts is what the replays measured.
type layerCosts struct {
	hdrEncNs, hdrDecNs     float64
	batchEncNs, batchDecNs float64 // per op
	wireAllocs             float64 // per op, all four codecs together
	p4PassNs               float64
	sqEnqDeqNs             float64
	dpPktNs                float64
	dpGrantNs, dpQueueNs   float64
	dpHandoffNs, dpFwdNs   float64
	dpPasses, dpEmits      float64 // per packet
	dpAllocs               float64
	lsPktNs, lsEmits       float64
	lsAllocs               float64
	solveMs                float64
	genNs                  float64
}

// sink keeps replay results observable so the compiler cannot drop calls.
var sink uint64

var replayIP = netip.AddrFrom4([4]byte{127, 0, 0, 1})

// opStream is generator 0's op stream, flattened into single requests and
// generated before any timing starts: the replays time the layer, not the
// generator (whose own cost is bench.gen_ns_per_op). Every replay walks the
// same ops with its own cursor, wrapping around at the end.
type opStream struct {
	ops []lockReq
	i   int
}

// generateOps draws at least n requests from src.
func generateOps(src opSource, n int) []lockReq {
	ops := make([]lockReq, 0, n+32)
	for len(ops) < n {
		ops = src.next(ops)
	}
	return ops
}

func (o *opStream) next() lockReq {
	r := o.ops[o.i]
	if o.i++; o.i == len(o.ops) {
		o.i = 0
	}
	return r
}

// replayHeader builds the packet a client would send for r.
func replayHeader(op wire.Op, r lockReq, txn uint64) wire.Header {
	return wire.Header{Op: op, Mode: r.wireMode(), LockID: r.id, TxnID: txn, ClientIP: replayIP, ClientPort: 4000}
}

// mallocs returns the process's cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayLayers runs every isolated-layer replay with calls calls each.
func replayLayers(s *spec, seed int64, procs, calls int) layerCosts {
	workers := s.nWorkers(procs)
	ops := generateOps(s.source(seed, 0, procs), calls)
	stream := func() *opStream { return &opStream{ops: ops} }
	var lc layerCosts
	replayWire(stream(), calls, &lc)
	replayP4(stream(), calls, &lc)
	replaySharedQueue(stream(), calls, &lc)
	depth := s.inflight
	if depth == 0 {
		depth = workers
	}
	if s.tpcc {
		depth = workers * 10 // a worker holds a transaction's ~10 locks at once
	}
	pl := s.place(seed, procs)
	replaySwitchDP(pl, stream(), calls, depth, &lc)
	replayOutcomes(stream(), calls, &lc)
	replayLockServer(stream(), calls, depth, &lc)

	ds, _ := s.profile(seed, procs, tpccSampleTxns, depth)
	capSlots := uint64(pl.dp.TotalSlots)
	reps := 1 + calls/(20*len(ds)+1)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		sink += uint64(len(memalloc.Knapsack(ds, capSlots).Switch))
	}
	lc.solveMs = float64(time.Since(t0)) / 1e6 / float64(reps)

	// The generator against a no-op stub: op choice plus the oracle's
	// holder flag, nothing acquired.
	hold := newHolders(s.denseIDs(procs))
	src := s.source(seed, 0, procs)
	var set []lockReq
	n := 0
	t0 = time.Now()
	for n < calls {
		set = src.next(set[:0])
		for _, r := range set {
			if hold.grant(r.id, r.excl) {
				sink++
			}
		}
		for _, r := range set {
			hold.release(r.id, r.excl)
		}
		n += len(set)
	}
	lc.genNs = float64(time.Since(t0)) / float64(n)
	return lc
}

func replayWire(src *opStream, calls int, lc *layerCosts) {
	hdrs := make([]wire.Header, 4096)
	for i := range hdrs {
		hdrs[i] = replayHeader(wire.OpAcquire, src.next(), uint64(i+1))
	}
	buf := make([]byte, 0, wire.MaxDatagram)
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		buf = hdrs[i%len(hdrs)].AppendTo(buf[:0])
		sink += uint64(buf[5])
	}
	lc.hdrEncNs = float64(time.Since(t0)) / float64(calls)

	var h wire.Header
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if h.DecodeFromBytes(buf) == nil {
			sink += uint64(h.LockID)
		}
	}
	lc.hdrDecNs = float64(time.Since(t0)) / float64(calls)

	// Full frames, as udp_shared runs them.
	var bw wire.BatchWriter
	var frame []byte
	frames := calls / wire.MaxBatchOps
	t0 = time.Now()
	for f := 0; f < frames; f++ {
		bw.Reset(buf[:0])
		for k := 0; k < wire.MaxBatchOps; k++ {
			bw.Append(&hdrs[(f*wire.MaxBatchOps+k)%len(hdrs)])
		}
		frame = bw.Frame()
		sink += uint64(len(frame))
	}
	lc.batchEncNs = float64(time.Since(t0)) / float64(frames*wire.MaxBatchOps)

	var br wire.BatchReader
	t0 = time.Now()
	for f := 0; f < frames; f++ {
		if br.Reset(frame) != nil {
			continue
		}
		for {
			ok, err := br.Next(&h)
			if err != nil || !ok {
				break
			}
			sink += uint64(h.LockID)
		}
	}
	lc.batchDecNs = float64(time.Since(t0)) / float64(frames*wire.MaxBatchOps)
	lc.wireAllocs = float64(mallocs()-m0) / float64(2*calls+2*frames*wire.MaxBatchOps)
}

// replayP4 pushes a one-RMW program through Pipeline.Process: the fixed
// cost of a pipeline pass.
func replayP4(src *opStream, calls int, lc *layerCosts) {
	const n = 1 << 12
	pipe := p4sim.NewPipeline(p4sim.Config{Stages: 12, StageSlots: n, MaxResubmits: 4})
	arr := pipe.AllocArray("ctr", 0, n)
	idx := 0
	inc := func(v uint64) uint64 { return v + 1 }
	prog := p4sim.Program(func(c *p4sim.Ctx) { sink += arr.ReadModifyWrite(c, idx, inc) })
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		idx = int(src.next().id) & (n - 1)
		pipe.Process(prog)
	}
	lc.p4PassNs = float64(time.Since(t0)) / float64(calls)
}

// replaySharedQueue times one enqueue pass plus one dequeue pass of
// register accesses on a shared queue laid out like a switchdp bank.
func replaySharedQueue(src *opStream, calls int, lc *layerCosts) {
	const queues, per = 1 << 10, 8
	pipe := p4sim.NewPipeline(p4sim.Config{Stages: 12, StageSlots: 8 * queues * per, MaxResubmits: 4})
	q := sharedqueue.New(pipe, sharedqueue.Config{
		Name: "replay", MaxQueues: queues,
		Meta:  sharedqueue.MetaStages{Bounds: 0, Count: 1, Excl: 2, Wait: 3, Head: 4, Tail: 5},
		Slots: []sharedqueue.ArraySpec{{Stage: 6, Size: queues * per}},
	})
	for qi := 0; qi < queues; qi++ {
		q.CtrlSetRegion(qi, uint64(qi*per), uint64((qi+1)*per))
	}
	var qi int
	var slot sharedqueue.Slot
	enq := p4sim.Program(func(c *p4sim.Ctx) {
		left, right := q.Bounds(c, qi)
		if _, won := q.CondIncCount(c, qi, right-left); won {
			q.WriteSlot(c, sharedqueue.SlotIndex(left, right-left, q.IncTail(c, qi)), slot)
		}
	})
	deq := p4sim.Program(func(c *p4sim.Ctx) {
		left, right := q.Bounds(c, qi)
		if _, ok := q.CondDecCount(c, qi); ok {
			sink += q.ReadSlot(c, sharedqueue.SlotIndex(left, right-left, q.IncHead(c, qi))).TxnID
		}
	})
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		r := src.next()
		qi = int(r.id) & (queues - 1)
		slot = sharedqueue.Slot{Exclusive: r.excl, TxnID: uint64(i + 1), ClientIP: 0x7f000001}
		pipe.Process(enq)
		pipe.Process(deq)
	}
	lc.sqEnqDeqNs = float64(time.Since(t0)) / float64(calls)
}

// granted is one grant a replayed layer emitted.
type granted struct {
	req lockReq
	txn uint64
}

// closedLoop replays the stream into a packet-processing layer the way the
// workload's closed loop would: depth requests outstanding, the oldest
// granted holder releasing next. process handles one packet and reports
// which (lock, txn) pairs it granted and whether the request left the layer
// without queueing (forwarded elsewhere). It returns the packets processed.
func closedLoop(src *opStream, calls, depth int, process func(h *wire.Header, out []granted) (grants []granted, gone bool)) int {
	// Granted holders wait in a ring sized once, so the replay itself never
	// allocates inside the timed region: at most depth requests are
	// outstanding, hence at most depth are granted.
	ring := make([]granted, nextPow2(depth+1))
	mask := len(ring) - 1
	head, tail := 0, 0
	out := make([]granted, 0, depth+1)
	outstanding, n := 0, 0
	var txn uint64
	// One header for the whole replay: a fresh one per packet would escape
	// to the heap through process and be counted as the layer's allocation.
	var h wire.Header
	for n < calls {
		for outstanding < depth && n < calls {
			r := src.next()
			txn++
			h = replayHeader(wire.OpAcquire, r, txn)
			var gone bool
			out, gone = process(&h, out[:0])
			n++
			if gone {
				// Not this layer's lock: its release passes through too.
				h = replayHeader(wire.OpRelease, r, txn)
				out, _ = process(&h, out[:0])
				n++
				continue
			}
			outstanding++
			for _, g := range out {
				ring[tail&mask] = g
				tail++
			}
		}
		if head == tail {
			break // nothing holds a lock: only when every request was forwarded
		}
		g := ring[head&mask]
		head++
		h = replayHeader(wire.OpRelease, g.req, g.txn)
		out, _ = process(&h, out[:0])
		n++
		outstanding--
		for _, g := range out {
			ring[tail&mask] = g
			tail++
		}
	}
	return n
}

// replaySwitchDP drives a data plane configured and installed like the
// workload's own.
func replaySwitchDP(pl placement, src *opStream, calls, depth int, lc *layerCosts) {
	dp := switchdp.New(pl.dp)
	off := 0
	for _, l := range pl.locks {
		if dp.CtrlInstallLock(l.ID, []switchdp.Region{{Left: uint64(off), Right: uint64(off + l.Slots)}}) != nil {
			return
		}
		off += l.Slots
	}
	var passes, emits int
	process := func(h *wire.Header, out []granted) ([]granted, bool) {
		es, p := dp.ProcessPacket(h)
		passes += p
		emits += len(es)
		gone := false
		for i := range es {
			switch es[i].Action {
			case switchdp.ActGrant:
				out = append(out, granted{lockReq{es[i].Hdr.LockID, es[i].Hdr.Mode == wire.Exclusive}, es[i].Hdr.TxnID})
			case switchdp.ActForward, switchdp.ActForwardOverflow:
				gone = true
			}
		}
		return out, gone
	}
	m0 := mallocs()
	t0 := time.Now()
	n := closedLoop(src, calls, depth, process)
	el := time.Since(t0)
	lc.dpAllocs = float64(mallocs()-m0) / float64(n)
	lc.dpPktNs = float64(el) / float64(n)
	lc.dpPasses = float64(passes) / float64(n)
	lc.dpEmits = float64(emits) / float64(n)
}

// replayOutcomes times switchdp.ProcessPacket by outcome. Blocks of 64
// scratch locks keep every call in a timed block on the same path:
// immediate grant, queued behind a holder, release that hands off to the
// waiter, and forward of a non-resident lock. The stream supplies visiting
// order and the grant mode.
func replayOutcomes(src *opStream, calls int, lc *layerCosts) {
	const nLocks, slots = 64, 4
	dp := switchdp.New(switchdp.Config{MaxLocks: 128, TotalSlots: nLocks * slots * 2, Priorities: 1})
	for i := 0; i < nLocks; i++ {
		if dp.CtrlInstallLock(uint32(1+i), []switchdp.Region{{Left: uint64(i * slots), Right: uint64((i + 1) * slots)}}) != nil {
			return
		}
	}
	var order [nLocks]uint32
	var first [nLocks]lockReq
	var grantNs, queueNs, handoffNs, fwdNs time.Duration
	var txn uint64
	rounds := calls/nLocks + 1
	for round := 0; round < rounds; round++ {
		// A rotation of the scratch set, offset by the stream.
		rot := int(src.next().id)
		for i := range order {
			order[i] = uint32(1 + (i+rot)%nLocks)
		}
		base := txn
		t0 := time.Now()
		for i, id := range order {
			first[i] = lockReq{id, src.next().excl}
			h := replayHeader(wire.OpAcquire, first[i], base+uint64(i)+1)
			es, _ := dp.ProcessPacket(&h)
			sink += uint64(len(es))
		}
		t1 := time.Now()
		for i, id := range order {
			h := replayHeader(wire.OpAcquire, lockReq{id, true}, base+nLocks+uint64(i)+1)
			es, _ := dp.ProcessPacket(&h)
			sink += uint64(len(es))
		}
		t2 := time.Now()
		for i := range order {
			h := replayHeader(wire.OpRelease, first[i], base+uint64(i)+1)
			es, _ := dp.ProcessPacket(&h)
			sink += uint64(len(es))
		}
		t3 := time.Now()
		for i, id := range order {
			h := replayHeader(wire.OpRelease, lockReq{id, true}, base+nLocks+uint64(i)+1)
			dp.ProcessPacket(&h)
		}
		t4 := time.Now()
		for i, id := range order {
			h := replayHeader(wire.OpAcquire, lockReq{id + 1000, true}, base+2*nLocks+uint64(i)+1)
			es, _ := dp.ProcessPacket(&h)
			sink += uint64(len(es))
		}
		t5 := time.Now()
		txn += 3 * nLocks
		grantNs += t1.Sub(t0)
		queueNs += t2.Sub(t1)
		handoffNs += t3.Sub(t2)
		fwdNs += t5.Sub(t4)
	}
	per := float64(rounds * nLocks)
	lc.dpGrantNs = float64(grantNs) / per
	lc.dpQueueNs = float64(queueNs) / per
	lc.dpHandoffNs = float64(handoffNs) / per
	lc.dpFwdNs = float64(fwdNs) / per
}

// replayLockServer drives one lock server with the whole stream, as if it
// owned every lock (a lock server adopts any lock it is asked about).
func replayLockServer(src *opStream, calls, depth int, lc *layerCosts) {
	ls := lockserver.New(lockserver.Config{Priorities: 1})
	emits := 0
	process := func(h *wire.Header, out []granted) ([]granted, bool) {
		es := ls.ProcessPacket(h)
		emits += len(es)
		for i := range es {
			if es[i].Action == lockserver.ActGrant {
				out = append(out, granted{lockReq{es[i].Hdr.LockID, es[i].Hdr.Mode == wire.Exclusive}, es[i].Hdr.TxnID})
			}
		}
		return out, false
	}
	m0 := mallocs()
	t0 := time.Now()
	n := closedLoop(src, calls, depth, process)
	el := time.Since(t0)
	lc.lsAllocs = float64(mallocs()-m0) / float64(n)
	lc.lsPktNs = float64(el) / float64(n)
	lc.lsEmits = float64(emits) / float64(n)
}
