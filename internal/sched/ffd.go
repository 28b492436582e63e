package sched

import (
	"cmp"
	"fmt"
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
	seen   map[int]bool
}

// Place packs items onto nodes with the First-Fit-Decreasing heuristic
// under a resource over-commit factor: each of `nodes` nodes offers
// cpuCap*overcommit cores and ramCap*overcommit GB. Items are sorted by
// descending CPU (RAM as tiebreak, then ID for determinism) and each takes
// the first node with room. Pinned items are seated first, in ID order.
// disabled marks unusable nodes (failed or cordoned) by node id; no item
// is placed there, and a pin to a disabled node reports the item unplaced
// so the caller can re-route it. A nil or short mask reads as all-usable.
//
// FFD's classical guarantee FFD(L) <= 11/9*OPT(L) + 1 (Yue 1991) applies
// per dimension; the 2-D variant used here inherits it as a heuristic, and
// the test suite cross-checks small instances against brute force.
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
	if p.seen == nil {
		p.seen = make(map[int]bool, len(items))
	} else {
		clear(p.seen)
	}
	for i := range items {
		p.nodeOf[i] = -1
		it := &items[i]
		if p.seen[it.ID] {
			return fmt.Errorf("sched: duplicate item id %d", it.ID)
		}
		p.seen[it.ID] = true
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
	slices.SortFunc(free, func(ai, bi int) int {
		a, b := items[ai], items[bi]
		if c := cmp.Compare(b.CPU, a.CPU); c != 0 {
			return c
		}
		if c := cmp.Compare(b.RAM, a.RAM); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
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
