package sched

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// placed counts the distinct nodes p seated the first n items on and the
// items it left unplaced.
func placed(p *Placer, n int) (nodesUsed, unplaced int) {
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		if node := p.NodeOf(i); node < 0 {
			unplaced++
		} else if !seen[node] {
			seen[node] = true
			nodesUsed++
		}
	}
	return nodesUsed, unplaced
}

func TestFFDBasicPacking(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 6, RAM: 8, Pinned: -1},
		{ID: 1, CPU: 6, RAM: 8, Pinned: -1},
		{ID: 2, CPU: 6, RAM: 8, Pinned: -1},
		{ID: 3, CPU: 6, RAM: 8, Pinned: -1},
	}
	// 12-core nodes, no over-commit: two per node.
	var p Placer
	if err := p.Place(items, 5, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	used, unplaced := placed(&p, len(items))
	if used != 2 {
		t.Fatalf("nodes used %d, want 2", used)
	}
	if unplaced != 0 {
		t.Fatalf("%d items unplaced", unplaced)
	}
}

func TestFFDOvercommit(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 9, RAM: 8, Pinned: -1},
		{ID: 1, CPU: 9, RAM: 8, Pinned: -1},
	}
	// Without over-commit: 2 nodes. With 1.5x: one 12-core node takes 18.
	var p Placer
	if err := p.Place(items, 3, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if used, _ := placed(&p, len(items)); used != 2 {
		t.Fatalf("no-overcommit nodes %d, want 2", used)
	}
	if err := p.Place(items, 3, 12, 32, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	if used, _ := placed(&p, len(items)); used != 1 {
		t.Fatalf("overcommit nodes %d, want 1", used)
	}
}

func TestFFDRAMConstraintBinds(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 1, RAM: 30, Pinned: -1},
		{ID: 1, CPU: 1, RAM: 30, Pinned: -1},
	}
	var p Placer
	if err := p.Place(items, 2, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if used, _ := placed(&p, len(items)); used != 2 {
		t.Fatalf("RAM-bound items should spread: nodes %d", used)
	}
}

func TestFFDUnplaced(t *testing.T) {
	items := []PlaceItem{
		{ID: 7, CPU: 100, RAM: 1, Pinned: -1},
		{ID: 8, CPU: 1, RAM: 1, Pinned: -1},
	}
	var p Placer
	if err := p.Place(items, 1, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(0) != -1 {
		t.Fatalf("oversized item 7 on node %d, want unplaced", p.NodeOf(0))
	}
	if p.NodeOf(1) < 0 {
		t.Fatal("small item should still place")
	}
}

func TestFFDPinned(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 6, RAM: 8, Pinned: 2},
		{ID: 1, CPU: 6, RAM: 8, Pinned: -1},
	}
	var p Placer
	if err := p.Place(items, 4, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(0) != 2 {
		t.Fatalf("pinned item on node %d, want 2", p.NodeOf(0))
	}
	// Free item goes first-fit to node 0.
	if p.NodeOf(1) != 0 {
		t.Fatalf("free item on node %d, want 0", p.NodeOf(1))
	}
}

func TestFFDPinnedOverflow(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 10, RAM: 8, Pinned: 0},
		{ID: 1, CPU: 10, RAM: 8, Pinned: 0},
	}
	var p Placer
	if err := p.Place(items, 2, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Pins are seated in ID order, so the second one overflows.
	if p.NodeOf(0) != 0 || p.NodeOf(1) != -1 {
		t.Fatalf("pinned items on nodes %d, %d; want 0, -1", p.NodeOf(0), p.NodeOf(1))
	}
}

func TestFFDErrors(t *testing.T) {
	good := []PlaceItem{{ID: 0, CPU: 1, RAM: 1, Pinned: -1}}
	var p Placer
	if err := p.Place(good, 0, 12, 32, 1, nil); err == nil {
		t.Error("zero nodes should fail")
	}
	if err := p.Place(good, 1, 0, 32, 1, nil); err == nil {
		t.Error("zero cpu cap should fail")
	}
	if err := p.Place(good, 1, 12, 32, 0.5, nil); err == nil {
		t.Error("overcommit < 1 should fail")
	}
	if err := p.Place([]PlaceItem{{ID: 0, CPU: -1, RAM: 1, Pinned: -1}}, 1, 12, 32, 1, nil); err == nil {
		t.Error("negative demand should fail")
	}
	if err := p.Place([]PlaceItem{{ID: 0, CPU: 1, RAM: 1, Pinned: -1}, {ID: 0, CPU: 1, RAM: 1, Pinned: -1}}, 1, 12, 32, 1, nil); err == nil {
		t.Error("duplicate ids should fail")
	}
	if err := p.Place([]PlaceItem{{ID: 0, CPU: 1, RAM: 1, Pinned: 9}}, 2, 12, 32, 1, nil); err == nil {
		t.Error("pin to nonexistent node should fail")
	}
	// A failed call leaves the Placer usable.
	if err := p.Place(good, 1, 12, 32, 1, nil); err != nil || p.NodeOf(0) != 0 {
		t.Fatalf("Place after errors: err=%v node=%d", err, p.NodeOf(0))
	}
}

// optBins computes the optimal bin count for 1-D CPU-only items by branch
// and bound (exponential; tiny instances only).
func optBins(sizes []float64, cap float64) int {
	best := len(sizes)
	bins := []float64{}
	var rec func(i int)
	rec = func(i int) {
		if len(bins) >= best {
			return
		}
		if i == len(sizes) {
			if len(bins) < best {
				best = len(bins)
			}
			return
		}
		for b := range bins {
			if bins[b]+sizes[i] <= cap+1e-9 {
				bins[b] += sizes[i]
				rec(i + 1)
				bins[b] -= sizes[i]
			}
		}
		bins = append(bins, sizes[i])
		rec(i + 1)
		bins = bins[:len(bins)-1]
	}
	rec(0)
	return best
}

func TestFFDWithinClassicalBound(t *testing.T) {
	// FFD(L) <= 11/9 OPT(L) + 1 on 1-D instances (RAM made non-binding).
	s := rng.New(5, "ffd-bound")
	var p Placer
	for trial := 0; trial < 60; trial++ {
		n := 3 + s.Intn(7)
		items := make([]PlaceItem, n)
		sizes := make([]float64, n)
		for i := range items {
			c := float64(1+s.Intn(10)) / 10 * 12 // 1.2 .. 12 cores
			items[i] = PlaceItem{ID: i, CPU: c, RAM: 0.001, Pinned: -1}
			sizes[i] = c
		}
		if err := p.Place(items, n, 12, 1000, 1, nil); err != nil {
			t.Fatal(err)
		}
		used, unplaced := placed(&p, n)
		if unplaced != 0 {
			t.Fatalf("trial %d: unplaced with n nodes available", trial)
		}
		opt := optBins(sizes, 12)
		if float64(used) > 11.0/9.0*float64(opt)+1+1e-9 {
			t.Fatalf("trial %d: FFD=%d exceeds 11/9*OPT+1 with OPT=%d", trial, used, opt)
		}
	}
}

func TestFFDDeterministic(t *testing.T) {
	s := rng.New(9, "ffd-det")
	items := make([]PlaceItem, 40)
	for i := range items {
		items[i] = PlaceItem{ID: i, CPU: s.Uniform(0.5, 2), RAM: s.Uniform(1, 4), Pinned: -1}
	}
	// A fresh Placer and a reused one that packed a different set in
	// between must seat every item on the same node.
	var a, b Placer
	if err := a.Place(items, 10, 12, 32, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(items[:7], 3, 12, 32, 1, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(items, 10, 12, 32, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if a.NodeOf(i) != b.NodeOf(i) {
			t.Fatalf("nondeterministic placement for item %d: %d vs %d", i, a.NodeOf(i), b.NodeOf(i))
		}
	}
}

func TestFFDLoadAccounting(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 4, RAM: 10, Pinned: -1},
		{ID: 1, CPU: 5, RAM: 12, Pinned: -1},
	}
	var p Placer
	if err := p.Place(items, 1, 12, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if p.NodeOf(i) != 0 {
			t.Fatalf("item %d on node %d, want 0", i, p.NodeOf(i))
		}
	}
	// The two items load the node to 9 of 12 cores and 22 of 32 GB: a
	// third 4-core item no longer fits beside them, a 3-core one does.
	for _, tc := range []struct {
		cpu  float64
		want int
	}{{4, -1}, {3, 0}} {
		more := append(items[:2:2], PlaceItem{ID: 2, CPU: tc.cpu, RAM: 1, Pinned: -1})
		if err := p.Place(more, 1, 12, 32, 1, nil); err != nil {
			t.Fatal(err)
		}
		if got := p.NodeOf(2); got != tc.want {
			t.Fatalf("%v-core item on node %d, want %d", tc.cpu, got, tc.want)
		}
	}
}

func TestFFDAvoidingSkipsDisabledNodes(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 6, RAM: 8, Pinned: -1},
		{ID: 1, CPU: 6, RAM: 8, Pinned: -1},
	}
	var p Placer
	if err := p.Place(items, 3, 12, 32, 1, []bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		switch p.NodeOf(i) {
		case 0:
			t.Fatalf("item %d placed on disabled node 0", i)
		case -1:
			t.Fatalf("item %d should fit on the remaining nodes", i)
		}
	}
}

func TestFFDAvoidingPinnedToDisabledNodeUnplaced(t *testing.T) {
	items := []PlaceItem{{ID: 7, CPU: 1, RAM: 1, Pinned: 1}}
	var p Placer
	if err := p.Place(items, 3, 12, 32, 1, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(0) != -1 {
		t.Fatalf("pin to disabled node should report unplaced, got node %d", p.NodeOf(0))
	}
}

func TestFFDAvoidingAllDisabled(t *testing.T) {
	items := []PlaceItem{{ID: 0, CPU: 1, RAM: 1, Pinned: -1}}
	var p Placer
	if err := p.Place(items, 2, 12, 32, 1, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(0) != -1 {
		t.Fatalf("all nodes disabled: item must be unplaced, got node %d", p.NodeOf(0))
	}
}

// TestFFDNilDisabledEqualsFFD checks that a nil, an all-false and a short
// disabled mask (its missing tail reads as usable) all place like plain
// FFD.
func TestFFDNilDisabledEqualsFFD(t *testing.T) {
	items := []PlaceItem{
		{ID: 0, CPU: 4, RAM: 8, Pinned: -1},
		{ID: 1, CPU: 5, RAM: 6, Pinned: -1},
		{ID: 2, CPU: 9, RAM: 6, Pinned: 3},
	}
	var plain Placer
	if err := plain.Place(items, 4, 12, 32, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	for _, mask := range [][]bool{make([]bool, 4), {false}} {
		var p Placer
		if err := p.Place(items, 4, 12, 32, 1.5, mask); err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if p.NodeOf(i) != plain.NodeOf(i) {
				t.Fatalf("mask %v: item %d on node %d, nil mask put it on %d", mask, i, p.NodeOf(i), plain.NodeOf(i))
			}
		}
	}
}

// TestPlaceIgnoresItemOrder pins the property the simulator's carried FFD
// order rests on: Place's answer, as a map from item ID to node, depends
// only on the item set. Each seeded instance is placed as generated and
// under random permutations. Instances mix consolidating (all free) and
// pinned items, disabled and short masks, over-commit factors, and
// demands drawn from a small grid, so equal items and CPU or RAM ties
// broken by the next key are common.
func TestPlaceIgnoresItemOrder(t *testing.T) {
	s := rng.New(7, "ffd-item-order")
	var ref, p Placer
	for inst := 0; inst < 10000; inst++ {
		nodes := 1 + s.Intn(8)
		consolidate := s.Bernoulli(0.5)
		items := make([]PlaceItem, s.Intn(40))
		for i, id := range s.Perm(len(items) * 3)[:len(items)] {
			pin := -1
			if !consolidate && s.Bernoulli(0.4) {
				pin = s.Intn(nodes)
			}
			items[i] = PlaceItem{
				ID:     id,
				CPU:    float64(1+s.Intn(6)) / 2,
				RAM:    float64(1 + s.Intn(4)),
				Pinned: pin,
			}
		}
		var disabled []bool
		if s.Bernoulli(0.5) {
			disabled = make([]bool, s.Intn(nodes+1))
			for n := range disabled {
				disabled[n] = s.Bernoulli(0.3)
			}
		}
		overcommit := []float64{1, 1.25, 1.5, 2}[s.Intn(4)]
		cpuCap, ramCap := float64(2+s.Intn(6)), float64(4+s.Intn(8))

		if err := ref.Place(items, nodes, cpuCap, ramCap, overcommit, disabled); err != nil {
			t.Fatalf("instance %d: %v", inst, err)
		}
		want := make(map[int]int, len(items))
		for i, it := range items {
			want[it.ID] = ref.NodeOf(i)
		}
		for perm := 0; perm < 3; perm++ {
			shuffled := slices.Clone(items)
			s.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if perm == 0 {
				slices.SortFunc(shuffled, CompareFFD)
			}
			if err := p.Place(shuffled, nodes, cpuCap, ramCap, overcommit, disabled); err != nil {
				t.Fatalf("instance %d: %v", inst, err)
			}
			for i, it := range shuffled {
				if got := p.NodeOf(i); got != want[it.ID] {
					t.Fatalf("instance %d, permutation %d: item %d on node %d, %d in generated order",
						inst, perm, it.ID, got, want[it.ID])
				}
			}
		}
	}
}
