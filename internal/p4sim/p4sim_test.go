package p4sim

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testPipeline() *Pipeline {
	return NewPipeline(Config{Stages: 4, StageSlots: 128, MaxResubmits: 8})
}

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value not a string: %v", r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

func TestPipelineConfigValidation(t *testing.T) {
	mustPanic(t, "invalid pipeline config", func() { NewPipeline(Config{}) })
}

func TestAllocArrayBudget(t *testing.T) {
	p := testPipeline()
	a := p.AllocArray("a", 0, 100)
	if a.Size() != 100 || a.Stage() != 0 || a.Name() != "a" {
		t.Fatalf("array metadata wrong: %v %v %v", a.Size(), a.Stage(), a.Name())
	}
	if p.StageFree(0) != 28 {
		t.Fatalf("stage free = %d, want 28", p.StageFree(0))
	}
	mustPanic(t, "budget exceeded", func() { p.AllocArray("b", 0, 29) })
	// Other stages unaffected.
	p.AllocArray("c", 1, 128)
}

func TestAllocArrayValidation(t *testing.T) {
	p := testPipeline()
	mustPanic(t, "out of range", func() { p.AllocArray("x", 4, 1) })
	mustPanic(t, "out of range", func() { p.AllocArray("x", -1, 1) })
	mustPanic(t, "non-positive size", func() { p.AllocArray("x", 0, 0) })
}

func TestSingleAccessPerPass(t *testing.T) {
	p := testPipeline()
	a := p.AllocArray("a", 0, 8)
	mustPanic(t, "accessed twice", func() {
		p.Process(func(c *Ctx) {
			a.Write(c, 0, 1)
			a.Read(c, 0)
		})
	})
}

func TestStageOrderEnforced(t *testing.T) {
	p := testPipeline()
	s0 := p.AllocArray("s0", 0, 8)
	s2 := p.AllocArray("s2", 2, 8)
	// Forward order is fine.
	p.Process(func(c *Ctx) {
		s0.Read(c, 0)
		s2.Read(c, 0)
	})
	// Backward order is a program bug.
	mustPanic(t, "traverse stages in order", func() {
		p.Process(func(c *Ctx) {
			s2.Read(c, 0)
			s0.Read(c, 0)
		})
	})
}

func TestResubmitAllowsSecondAccess(t *testing.T) {
	p := testPipeline()
	a := p.AllocArray("a", 0, 8)
	sum := uint64(0)
	passes := p.Process(func(c *Ctx) {
		v := a.ReadModifyWrite(c, 0, func(old uint64) uint64 { return old + 1 })
		sum += v
		if c.PassIndex() < 2 {
			c.Resubmit()
		}
	})
	if passes != 3 {
		t.Fatalf("passes = %d, want 3", passes)
	}
	if sum != 0+1+2 {
		t.Fatalf("RMW sequence wrong: sum=%d", sum)
	}
	if a.CtrlRead(0) != 3 {
		t.Fatalf("final value = %d, want 3", a.CtrlRead(0))
	}
}

func TestResubmitLimit(t *testing.T) {
	p := testPipeline()
	mustPanic(t, "resubmits", func() {
		p.Process(func(c *Ctx) { c.Resubmit() })
	})
}

func TestPassAndPacketAccounting(t *testing.T) {
	p := testPipeline()
	p.Process(func(c *Ctx) {})
	p.Process(func(c *Ctx) {
		if c.PassIndex() == 0 {
			c.Resubmit()
		}
	})
	if p.Packets() != 2 {
		t.Fatalf("packets = %d, want 2", p.Packets())
	}
	if p.Passes() != 3 {
		t.Fatalf("passes = %d, want 3", p.Passes())
	}
}

func TestIndexOutOfRange(t *testing.T) {
	p := testPipeline()
	a := p.AllocArray("a", 0, 8)
	mustPanic(t, "out of range", func() {
		p.Process(func(c *Ctx) { a.Read(c, 8) })
	})
	mustPanic(t, "out of range", func() {
		p.Process(func(c *Ctx) { a.Read(c, -1) })
	})
}

func TestForeignPipelineRejected(t *testing.T) {
	p1 := testPipeline()
	p2 := testPipeline()
	a := p1.AllocArray("a", 0, 8)
	mustPanic(t, "foreign pipeline", func() {
		p2.Process(func(c *Ctx) { a.Read(c, 0) })
	})
}

func TestControlPlaneAccess(t *testing.T) {
	p := testPipeline()
	a := p.AllocArray("a", 0, 4)
	a.CtrlWrite(2, 42)
	if a.CtrlRead(2) != 42 {
		t.Fatalf("ctrl read = %d, want 42", a.CtrlRead(2))
	}
	snap := a.CtrlSnapshot(nil)
	if len(snap) != 4 || snap[2] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Snapshot reuses the destination buffer.
	snap2 := a.CtrlSnapshot(snap)
	if &snap2[0] != &snap[0] {
		t.Fatalf("snapshot should reuse dst buffer")
	}
	// Control access does not consume the data-plane access budget.
	p.Process(func(c *Ctx) {
		a.CtrlRead(0)
		a.Read(c, 0)
	})
}

func TestCounter(t *testing.T) {
	c := NewCounter("reqs", 4)
	if c.Name() != "reqs" || c.Size() != 4 {
		t.Fatalf("counter metadata wrong")
	}
	c.Inc(1, 3)
	c.Inc(1, 2)
	if c.CtrlRead(1) != 5 {
		t.Fatalf("counter = %d, want 5", c.CtrlRead(1))
	}
	if got := c.CtrlClear(1); got != 5 {
		t.Fatalf("clear returned %d, want 5", got)
	}
	if c.CtrlRead(1) != 0 {
		t.Fatalf("counter not cleared")
	}
}

func TestCounterValidation(t *testing.T) {
	mustPanic(t, "non-positive counter size", func() { NewCounter("x", 0) })
}

func TestMeterConformance(t *testing.T) {
	m := NewMeter("quota", 2)
	if m.Name() != "quota" || m.Size() != 2 {
		t.Fatalf("meter metadata wrong")
	}
	// Unconfigured cell: always red.
	if m.Conforming(0, 0) {
		t.Fatalf("unconfigured meter cell should be red")
	}
	// 10 pkts/sec, burst 2.
	m.CtrlSetRate(1, 10, 2)
	if !m.Conforming(1, 0) || !m.Conforming(1, 0) {
		t.Fatalf("burst tokens should admit two packets")
	}
	if m.Conforming(1, 0) {
		t.Fatalf("third packet at t=0 should be red")
	}
	// After 100ms, one token has accumulated.
	if !m.Conforming(1, 100e6) {
		t.Fatalf("packet after refill should be green")
	}
	if m.Conforming(1, 100e6) {
		t.Fatalf("second packet should be red again")
	}
}

func TestMeterBurstCap(t *testing.T) {
	m := NewMeter("q", 1)
	m.CtrlSetRate(0, 1000, 3)
	// A long idle period must not accumulate more than burst tokens.
	for i := 0; i < 3; i++ {
		if !m.Conforming(0, 10e9) {
			t.Fatalf("packet %d within burst should be green", i)
		}
	}
	if m.Conforming(0, 10e9) {
		t.Fatalf("burst cap exceeded")
	}
}

func TestMeterValidation(t *testing.T) {
	mustPanic(t, "non-positive meter size", func() { NewMeter("x", 0) })
	m := NewMeter("x", 1)
	mustPanic(t, "invalid meter configuration", func() { m.CtrlSetRate(0, -1, 1) })
	mustPanic(t, "invalid meter configuration", func() { m.CtrlSetRate(0, 1, 0) })
}

// Property: meter admission over a long window never exceeds rate*time+burst.
func TestMeterRateBoundProperty(t *testing.T) {
	f := func(rateRaw, burstRaw uint8, arrivalsRaw []uint16) bool {
		rate := float64(rateRaw%100) + 1
		burst := float64(burstRaw%10) + 1
		m := NewMeter("q", 1)
		m.CtrlSetRate(0, rate, burst)
		now := int64(0)
		green := 0
		for _, a := range arrivalsRaw {
			now += int64(a) * 1e6 // up to 65ms apart
			if m.Conforming(0, now) {
				green++
			}
		}
		bound := rate*float64(now)/1e9 + burst
		return float64(green) <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMW applied k times (via k packets) equals k sequential
// applications of the function.
func TestRMWSequenceProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		p := testPipeline()
		a := p.AllocArray("a", 0, 1)
		want := uint64(0)
		for _, d := range adds {
			d := uint64(d)
			p.Process(func(c *Ctx) {
				a.ReadModifyWrite(c, 0, func(old uint64) uint64 { return old + d })
			})
			want += d
		}
		return a.CtrlRead(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableBasics(t *testing.T) {
	tbl := NewTable("locks", 2)
	if tbl.Name() != "locks" || tbl.Capacity() != 2 || tbl.Len() != 0 || tbl.Free() != 2 {
		t.Fatalf("metadata wrong")
	}
	if err := tbl.CtrlAdd(7, 42); err != nil {
		t.Fatal(err)
	}
	if p, hit := tbl.Lookup(7); !hit || p != 42 {
		t.Fatalf("lookup = %d,%v", p, hit)
	}
	if _, hit := tbl.Lookup(8); hit {
		t.Fatalf("miss expected")
	}
	if err := tbl.CtrlAdd(7, 43); err == nil {
		t.Fatalf("duplicate add should fail")
	}
	if err := tbl.CtrlAdd(8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CtrlAdd(9, 1); err == nil {
		t.Fatalf("full table should reject")
	}
	if err := tbl.CtrlDel(7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CtrlDel(7); err == nil {
		t.Fatalf("double delete should fail")
	}
	if keys := tbl.CtrlKeys(); len(keys) != 1 || keys[0] != 8 {
		t.Fatalf("keys = %v", keys)
	}
	tbl.CtrlClear()
	if tbl.Len() != 0 {
		t.Fatalf("clear failed")
	}
}

// TestTableKeysSorted pins the control-plane scan order: CtrlKeys lists
// the installed keys ascending whatever the order they were added and
// removed in, and the returned slice is the caller's own.
func TestTableKeysSorted(t *testing.T) {
	tbl := NewTable("locks", 16)
	for _, k := range []uint32{43, 63, 23, 73, 53, 33, 13, 83} {
		if err := tbl.CtrlAdd(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CtrlDel(53); err != nil {
		t.Fatal(err)
	}
	keys := tbl.CtrlKeys()
	if want := []uint32{13, 23, 33, 43, 63, 73, 83}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	keys[0] = 99
	if got := tbl.CtrlKeys()[0]; got != 13 {
		t.Fatalf("CtrlKeys shares its backing array: first key %d", got)
	}
	tbl.CtrlClear()
	if keys := tbl.CtrlKeys(); len(keys) != 0 {
		t.Fatalf("keys after clear = %v", keys)
	}
	if err := tbl.CtrlAdd(5, 0); err != nil || !reflect.DeepEqual(tbl.CtrlKeys(), []uint32{5}) {
		t.Fatalf("add after clear: %v, keys %v", err, tbl.CtrlKeys())
	}
}

func TestTableValidation(t *testing.T) {
	mustPanic(t, "non-positive table capacity", func() { NewTable("x", 0) })
}
