package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// PlaceItem is one job from the placement engine's point of view.
type PlaceItem struct {
	// ID identifies the job.
	ID int
	// CPU and RAM are the demands in cores / GB.
	CPU float64
	RAM float64
	// Pinned, when >= 0, fixes the item to that node (used for running
	// jobs when consolidation is off). Pinned items are placed first and
	// never fail unless their node genuinely lacks capacity, in which case
	// Place reports them unplaced (caller decides whether to migrate).
	Pinned int
}

// CompareFFD is the order in which First-Fit-Decreasing seats free items:
// CPU descending, then RAM descending, then ID ascending. On items with
// distinct IDs it is a total order, so sorting by it gives one answer
// whatever order the items arrive in.
func CompareFFD(a, b PlaceItem) int {
	if c := cmp.Compare(b.CPU, a.CPU); c != 0 {
		return c
	}
	if c := cmp.Compare(b.RAM, a.RAM); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Placer is the reusable First-Fit-Decreasing engine. A zero Placer is
// ready to use; after the first Place call its scratch state (order, node
// loads, duplicate-detection set) is reset rather than reallocated, so a
// Placer calling Place once per slot allocates nothing in steady state.
//
// A Placer is single-goroutine state: each simulator owns its own.
type Placer struct {
	items  []PlaceItem
	nodeOf []int // item index -> node, -1 when unplaced
	order  []int // pinned item indices (by ID), then free (FFD order)
	cpu    []float64
	ram    []float64
	seen   idSet
}

// idSet is an exact set of item IDs for Place's duplicate check: open
// addressing with linear probing over a power-of-two table kept at most
// half full. A slot belongs to the current call only when its stamp equals
// the set's epoch, so starting a new call is one increment, not a clear.
type idSet struct {
	slots []idSlot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick a slot
	epoch uint32
}

type idSlot struct {
	id    int
	epoch uint32
}

// reset empties the set and sizes it for n insertions. It allocates only
// when n outgrows every earlier call.
func (s *idSet) reset(n int) {
	if len(s.slots) < 2*n {
		size := 16
		for size < 2*n {
			size *= 2
		}
		s.slots = make([]idSlot, size)
		s.shift = uint(64 - bits.TrailingZeros(uint(size)))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		// The stamp wrapped: stale slots could now read as current.
		clear(s.slots)
		s.epoch = 1
	}
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id int) bool {
	mask := len(s.slots) - 1
	i := int((uint64(id) * 0x9E3779B97F4A7C15) >> s.shift)
	for {
		slot := &s.slots[i]
		if slot.epoch != s.epoch {
			*slot = idSlot{id: id, epoch: s.epoch}
			return true
		}
		if slot.id == id {
			return false
		}
		i = (i + 1) & mask
	}
}

// Place packs items onto nodes with the First-Fit-Decreasing heuristic
// under a resource over-commit factor: each of `nodes` nodes offers
// cpuCap*overcommit cores and ramCap*overcommit GB. Pinned items are
// seated first, in ID order; free items follow in CompareFFD order, each
// taking the first node with room. disabled marks unusable nodes (failed
// or cordoned) by node id; no item is placed there, and a pin to a
// disabled node reports the item unplaced so the caller can re-route it.
// A nil or short mask reads as all-usable.
//
// FFD's classical guarantee FFD(L) <= 11/9*OPT(L) + 1 (Yue 1991) applies
// per dimension; the 2-D variant used here inherits it as a heuristic, and
// the test suite cross-checks small instances against brute force.
//
// Both sorts are total orders on distinct IDs, so the node each item gets
// depends only on the item set, never on the order of items. A caller that
// passes items already in CompareFFD order gets the same answer sooner:
// pdqsort finishes sorted input in linear time.
//
// The results stay valid until the next Place call. items is read-only and
// not retained past the queries below.
func (p *Placer) Place(items []PlaceItem, nodes int, cpuCap, ramCap, overcommit float64, disabled []bool) error {
	if nodes <= 0 {
		return fmt.Errorf("sched: FFD needs at least one node")
	}
	if cpuCap <= 0 || ramCap <= 0 {
		return fmt.Errorf("sched: FFD needs positive capacities (cpu=%v ram=%v)", cpuCap, ramCap)
	}
	if overcommit < 1 {
		return fmt.Errorf("sched: over-commit %v below 1", overcommit)
	}
	effCPU := cpuCap * overcommit
	effRAM := ramCap * overcommit

	p.items = items
	p.nodeOf = resizeInts(p.nodeOf, len(items))
	p.cpu = resizeFloats(p.cpu, nodes)
	p.ram = resizeFloats(p.ram, nodes)
	p.seen.reset(len(items))
	for i := range items {
		p.nodeOf[i] = -1
		it := &items[i]
		if !p.seen.add(it.ID) {
			return fmt.Errorf("sched: duplicate item id %d", it.ID)
		}
		if it.CPU < 0 || it.RAM < 0 {
			return fmt.Errorf("sched: item %d has negative demand", it.ID)
		}
	}

	off := func(node int) bool { return node < len(disabled) && disabled[node] }
	fits := func(i, node int) bool {
		return p.cpu[node]+items[i].CPU <= effCPU+1e-9 && p.ram[node]+items[i].RAM <= effRAM+1e-9
	}
	place := func(i, node int) {
		p.nodeOf[i] = node
		p.cpu[node] += items[i].CPU
		p.ram[node] += items[i].RAM
	}

	// Seat pinned items first, in ID order for determinism.
	p.order = p.order[:0]
	for i := range items {
		if items[i].Pinned >= 0 {
			p.order = append(p.order, i)
		}
	}
	nPinned := len(p.order)
	for i := range items {
		if items[i].Pinned < 0 {
			p.order = append(p.order, i)
		}
	}
	pinned, free := p.order[:nPinned], p.order[nPinned:]
	slices.SortFunc(pinned, func(a, b int) int { return cmp.Compare(items[a].ID, items[b].ID) })
	for _, i := range pinned {
		it := items[i]
		if it.Pinned >= nodes {
			return fmt.Errorf("sched: item %d pinned to nonexistent node %d", it.ID, it.Pinned)
		}
		if !off(it.Pinned) && fits(i, it.Pinned) {
			place(i, it.Pinned)
		}
	}

	// First-Fit-Decreasing for the rest.
	slices.SortFunc(free, func(ai, bi int) int { return CompareFFD(items[ai], items[bi]) })
	for _, i := range free {
		for n := 0; n < nodes; n++ {
			if off(n) {
				continue
			}
			if fits(i, n) {
				place(i, n)
				break
			}
		}
	}
	return nil
}

// NodeOf returns the node items[i] was placed on, or -1 when it fit
// nowhere (or its pin was disabled/over capacity).
func (p *Placer) NodeOf(i int) int { return p.nodeOf[i] }

// resizeInts returns s with length n, reusing its backing array when large
// enough.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// resizeFloats returns s with length n and every element zeroed, reusing
// its backing array when large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
