package storage

import (
	"sort"
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
)

// rescanCover is the greedy set cover as a rescan of every admitted disk's
// object list on every pick, the form pickCover had before the lazy heap.
// It is the oracle the lazy greedy must match pick for pick. It returns
// the cover sorted by DiskID and the number of objects with no replica on
// an admitted node.
func rescanCover(c *Cluster, allowed func(n *Node) bool) ([]DiskID, int) {
	uncovered := make([]bool, len(c.placement))
	remaining, uncoverable := 0, 0
	for obj, reps := range c.placement {
		if len(reps) == 0 {
			continue
		}
		has := false
		for _, id := range reps {
			if allowed(c.nodes[id.Node]) {
				has = true
				break
			}
		}
		if !has {
			uncoverable++
			continue
		}
		uncovered[obj] = true
		remaining++
	}
	var chosen []DiskID
	for remaining > 0 {
		var best *Disk
		bestGain := 0
		for _, n := range c.nodes {
			if !allowed(n) {
				continue
			}
			for _, d := range n.Disks {
				gain := 0
				for _, obj := range d.Objects {
					if uncovered[obj] {
						gain++
					}
				}
				if gain > bestGain || (gain == bestGain && gain > 0 && lessDisk(d.ID, best.ID)) {
					best = d
					bestGain = gain
				}
			}
		}
		if best == nil {
			break
		}
		chosen = append(chosen, best.ID)
		for _, obj := range best.Objects {
			if uncovered[obj] {
				uncovered[obj] = false
				remaining--
			}
		}
	}
	sort.Slice(chosen, func(i, j int) bool { return lessDisk(chosen[i], chosen[j]) })
	return chosen, uncoverable
}

// lessDisk orders disks by DiskID.
func lessDisk(a, b DiskID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Disk < b.Disk
}

// checkCovers compares MinimalCover, CoverOnNodeMask(mask) and PartialCover
// on c with the rescan oracle, slice for slice.
func checkCovers(t *testing.T, name string, c *Cluster, mask []bool) {
	t.Helper()
	want, _ := rescanCover(c, func(*Node) bool { return true })
	if got := c.MinimalCover(); !sameDisks(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: MinimalCover %v, rescan %v", name, got, want)
	}
	want, unc := rescanCover(c, func(n *Node) bool { return n.ID < len(mask) && mask[n.ID] })
	if unc > 0 {
		want = nil
	}
	got, ok := c.CoverOnNodeMask(mask)
	if ok != (unc == 0) || !sameDisks(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: CoverOnNodeMask(%v) = %v/%v, rescan %v with %d uncoverable", name, mask, got, ok, want, unc)
	}
	want, unc = rescanCover(c, func(n *Node) bool { return !n.Failed })
	got, gotUnc := c.PartialCover()
	if gotUnc != unc || !sameDisks(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: PartialCover = %v/%d, rescan %v/%d", name, got, gotUnc, want, unc)
	}
}

// withLayout replaces c's placement: layout lists each object's replica
// disks as flat indices node*DisksPerNode + disk.
func withLayout(c *Cluster, layout [][]int) {
	perNode := c.cfg.NodeProfile.DisksPerNode
	for _, n := range c.nodes {
		for _, d := range n.Disks {
			d.Objects = nil
		}
	}
	c.placement = make([][]DiskID, len(layout))
	for obj, disks := range layout {
		for _, f := range disks {
			id := DiskID{Node: f / perNode, Disk: f % perNode}
			c.placement[obj] = append(c.placement[obj], id)
			c.DiskByID(id).Objects = append(c.DiskByID(id).Objects, obj)
		}
	}
	c.cfg.Objects = len(layout)
	c.setCover = c.newCoverScratch()
}

// randomCoverConfig draws a small valid cluster shape: untiered or with
// two or three tiers, sometimes with no objects.
func randomCoverConfig(r *rng.Stream) Config {
	cfg := DefaultConfig()
	cfg.NodeProfile.DisksPerNode = 1 + r.Intn(5)
	cfg.Objects = r.Intn(150)
	if r.Intn(10) == 0 {
		cfg.Objects = 0
	}
	cfg.Replicas = 1 + r.Intn(3)
	if r.Bernoulli(0.3) {
		tiers := 2 + r.Intn(2)
		for i := 0; i < tiers; i++ {
			cfg.Tiers = append(cfg.Tiers, Tier{
				Name: "t", Nodes: 1 + r.Intn(3), Server: power.R720(), Disk: power.ArchiveHDD(),
				ObjectShare: 1 / float64(tiers),
			})
		}
		for _, t := range cfg.Tiers {
			cfg.Replicas = min(cfg.Replicas, t.Nodes*cfg.NodeProfile.DisksPerNode)
		}
		return cfg
	}
	cfg.Nodes = 1 + r.Intn(8)
	cfg.Replicas = min(cfg.Replicas, cfg.Nodes*cfg.NodeProfile.DisksPerNode)
	return cfg
}

// TestLazyCoverMatchesRescan compares the lazy greedy with the rescan
// oracle on 10,000 seeded clusters: rendezvous placements, untiered and
// tiered, and arbitrary random layouts (replicas may share a node), each
// with a random node mask of random length and random failed nodes. The
// calls reuse one cluster's scratch in turn, so stale scratch would show.
func TestLazyCoverMatchesRescan(t *testing.T) {
	r := rng.New(11, "lazy-cover")
	for i := 0; i < 10000; i++ {
		cfg := randomCoverConfig(r)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		c := MustNewCluster(cfg)
		nodes, disks := len(c.Nodes()), c.TotalDisks()
		if i%2 == 1 {
			layout := make([][]int, r.Intn(120))
			for obj := range layout {
				for _, f := range r.Perm(disks)[:1+r.Intn(min(3, disks))] {
					layout[obj] = append(layout[obj], f)
				}
				if r.Intn(20) == 0 {
					layout[obj] = nil // an object without replicas
				}
			}
			withLayout(c, layout)
		}
		mask := make([]bool, r.Intn(nodes+2))
		density := r.Float64()
		for n := range mask {
			mask[n] = r.Bernoulli(density)
		}
		for n := 0; n < nodes; n++ {
			if r.Bernoulli(0.15) {
				c.FailNode(n)
			}
		}
		checkCovers(t, "case", c, mask)
	}
}

// TestLazyCoverTies pins crafted layouts where every pick is a tie, so the
// lowest-DiskID tie-break decides each one, on fresh keys and on stale
// keys that fall to meet a fresh one.
func TestLazyCoverTies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.NodeProfile.DisksPerNode = 3, 2 // six disks, flat 0..5
	ring := make([][]int, 6)                       // object i on disks i and i+1
	for i := range ring {
		ring[i] = []int{i, (i + 1) % 6}
	}
	grid := make([][]int, 9) // 3x3 objects; rows are disks 0-2, columns 3-5
	for i := range grid {
		grid[i] = []int{i / 3, 3 + i%3}
	}
	everywhere := make([][]int, 4)
	for i := range everywhere {
		everywhere[i] = []int{5, 4, 3, 2, 1, 0}
	}
	singles := make([][]int, 12) // two objects per disk, one replica each
	for i := range singles {
		singles[i] = []int{i % 6}
	}
	all := []bool{true, true, true}
	for _, tc := range []struct {
		name   string
		layout [][]int
		want   []DiskID
	}{
		{"ring", ring, []DiskID{{0, 0}, {1, 0}, {2, 0}}},
		{"grid", grid, []DiskID{{0, 0}, {0, 1}, {1, 0}}},
		{"everywhere", everywhere, []DiskID{{0, 0}}},
		{"singles", singles, []DiskID{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}},
		{"empty", nil, nil},
	} {
		c := MustNewCluster(cfg)
		withLayout(c, tc.layout)
		if got := c.MinimalCover(); !sameDisks(got, tc.want) {
			t.Errorf("%s: MinimalCover %v, want %v", tc.name, got, tc.want)
		}
		checkCovers(t, tc.name, c, all)
		checkCovers(t, tc.name+"/no-node-0", c, []bool{false, true, true})
		c.FailNode(1)
		checkCovers(t, tc.name+"/failed-1", c, all)
	}
}

// TestCoverOnNodeMaskAllocs asserts a warm CoverOnNodeMask allocates only
// the cover it returns, and nothing when the nodes cannot cover.
func TestCoverOnNodeMaskAllocs(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	mask := allNodes(c)
	mask[0] = false
	if _, ok := c.CoverOnNodeMask(mask); !ok {
		t.Fatal("29 of 30 nodes at r=3 should cover")
	}
	if allocs := testing.AllocsPerRun(50, func() { c.CoverOnNodeMask(mask) }); allocs > 1 {
		t.Errorf("warm CoverOnNodeMask allocates %.1f times, want only its returned slice", allocs)
	}
	one := []bool{true}
	if allocs := testing.AllocsPerRun(50, func() { c.CoverOnNodeMask(one) }); allocs > 0 {
		t.Errorf("uncoverable CoverOnNodeMask allocates %.1f times, want 0", allocs)
	}
}
