package p4sim

import (
	"fmt"
	"slices"
)

// Table is an exact-match match-action table: the data plane looks keys up
// at line rate; the control plane adds and removes entries at runtime.
// NetLock's lock table maps a lock ID to its queue index this way (§4.2,
// Figure 4: "the match-action table maps a lock ID to its corresponding
// register array").
//
// Entries carry a uint32 action parameter (the register index the action
// operates on). Capacity models the TCAM/SRAM budget for the table.
type Table struct {
	name     string
	capacity int
	entries  map[uint32]uint32
	// keys holds the installed keys in ascending order, so control-plane
	// scans walk the table in lock-ID order on every run.
	keys []uint32
}

// NewTable allocates a match-action table with the given entry capacity.
func NewTable(name string, capacity int) *Table {
	if capacity <= 0 {
		panic("p4sim: non-positive table capacity")
	}
	return &Table{name: name, capacity: capacity, entries: make(map[uint32]uint32, capacity)}
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Capacity returns the entry budget.
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Free returns the remaining entry budget.
func (t *Table) Free() int { return t.capacity - len(t.entries) }

// Lookup matches a key in the data plane; a miss selects the default
// action (the caller's miss path).
func (t *Table) Lookup(key uint32) (param uint32, hit bool) {
	param, hit = t.entries[key]
	return param, hit
}

// CtrlAdd installs an entry. Duplicate keys and a full table are
// control-plane errors.
func (t *Table) CtrlAdd(key, param uint32) error {
	if _, ok := t.entries[key]; ok {
		return fmt.Errorf("p4sim: table %s: duplicate key %d", t.name, key)
	}
	if len(t.entries) >= t.capacity {
		return fmt.Errorf("p4sim: table %s full (%d entries)", t.name, t.capacity)
	}
	t.entries[key] = param
	i, _ := slices.BinarySearch(t.keys, key)
	t.keys = slices.Insert(t.keys, i, key)
	return nil
}

// CtrlDel removes an entry.
func (t *Table) CtrlDel(key uint32) error {
	if _, ok := t.entries[key]; !ok {
		return fmt.Errorf("p4sim: table %s: no entry for key %d", t.name, key)
	}
	delete(t.entries, key)
	i, _ := slices.BinarySearch(t.keys, key)
	t.keys = slices.Delete(t.keys, i, i+1)
	return nil
}

// CtrlKeys returns a copy of the installed keys, ascending.
func (t *Table) CtrlKeys() []uint32 { return slices.Clone(t.keys) }

// CtrlClear removes every entry.
func (t *Table) CtrlClear() {
	clear(t.entries)
	t.keys = t.keys[:0]
}
