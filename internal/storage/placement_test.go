package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/power"
)

// referencePlacement is the textbook definition of highest-random-weight
// placement that placeObjects must reproduce: score every eligible disk,
// sort by (score desc, DiskID asc), then take disks greedily, skipping a
// node already used whenever the object's tier has at least Replicas nodes.
// It is kept only as the oracle of the differential test below.
func referencePlacement(c *Cluster) [][]DiskID {
	type cand struct {
		id    DiskID
		score uint64
	}
	out := make([][]DiskID, c.cfg.Objects)
	for obj := range out {
		tier := c.tierOf(obj)
		eligibleNodes := 0
		var cands []cand
		for _, n := range c.nodes {
			if len(c.cfg.Tiers) > 0 && n.Tier != tier {
				continue
			}
			eligibleNodes++
			for _, d := range n.Disks {
				cands = append(cands, cand{id: d.ID, score: rendezvousScore(obj, d.ID)})
			}
		}
		distinctNodes := eligibleNodes >= c.cfg.Replicas
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			a, b := cands[i].id, cands[j].id
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			return a.Disk < b.Disk
		})
		var replicas []DiskID
		usedNodes := map[int]bool{}
		for _, cd := range cands {
			if len(replicas) == c.cfg.Replicas {
				break
			}
			if distinctNodes && usedNodes[cd.id.Node] {
				continue
			}
			replicas = append(replicas, cd.id)
			usedNodes[cd.id.Node] = true
		}
		out[obj] = replicas
	}
	return out
}

// placementDigest hashes every object's replica list, in replica order.
func placementDigest(c *Cluster) string {
	h := sha256.New()
	for obj := 0; obj < c.Config().Objects; obj++ {
		fmt.Fprintf(h, "%d:", obj)
		for _, id := range c.Replicas(obj) {
			fmt.Fprintf(h, "%d.%d,", id.Node, id.Disk)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementGolden pins the rendezvous layout byte for byte. Every
// scenario golden, recovery sha256 and bench digest downstream depends on
// it, so a change here is a behaviour change, never a refactor.
func TestPlacementGolden(t *testing.T) {
	quarter := DefaultConfig()
	quarter.Nodes, quarter.Objects = 8, 750

	// The tiered layout E21 runs at scale 1: a third of the nodes hold the
	// hottest 20% of objects on enterprise disks.
	tiered := DefaultConfig()
	tiered.Tiers = []Tier{
		{Name: "hot", Nodes: 10, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: 0.2},
		{Name: "cold", Nodes: 20, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 0.8},
	}

	// Two nodes at r=3: replicas must share a node.
	sameNode := DefaultConfig()
	sameNode.Nodes, sameNode.Objects = 2, 500
	sameNode.NodeProfile.DisksPerNode = 4

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "a098aacd449cbdfff17ae70e93b6764013b63f740e40f72d5d0d8387f1e2f5dd"},
		{"quarter-week", quarter, "327b5054e2f51e7cc2c7ca8972e575c6e28dd68ebd1cf89d9022205d12c10437"},
		{"tiered-e21", tiered, "0dc280991485cd4df34f14d3f04520564733910ca346a41e75cde7dcf15e9417"},
		{"same-node", sameNode, "0f28cf85d213fe647b737359a4a5e4c84a4d39c8cc079a023a569391446e2c0e"},
	}
	for _, tc := range cases {
		if got := placementDigest(MustNewCluster(tc.cfg)); got != tc.want {
			t.Errorf("%s: placement digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// randomTopology draws a valid cluster config: 1-40 nodes, 1-12 disks per
// node, r in 1-5, and half the time a two-tier split.
func randomTopology(rnd *rand.Rand) Config {
	for {
		cfg := DefaultConfig()
		cfg.Nodes = 1 + rnd.Intn(40)
		cfg.NodeProfile.DisksPerNode = 1 + rnd.Intn(12)
		cfg.Replicas = 1 + rnd.Intn(5)
		cfg.Objects = rnd.Intn(300)
		if rnd.Intn(2) == 0 && cfg.Nodes >= 2 {
			hot := 1 + rnd.Intn(cfg.Nodes-1)
			share := 0.05 + 0.9*rnd.Float64()
			cfg.Tiers = []Tier{
				{Name: "hot", Nodes: hot, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: share},
				{Name: "cold", Nodes: cfg.Nodes - hot, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 1 - share},
			}
		}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// TestPlacementMatchesSortReference compares NewCluster against the
// sort-based definition on seeded random topologies.
func TestPlacementMatchesSortReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	sameNode := 0
	for i := 0; i < 200; i++ {
		cfg := randomTopology(rnd)
		c := MustNewCluster(cfg)
		want := referencePlacement(c)
		for obj, reps := range want {
			if !slices.Equal(c.Replicas(obj), reps) {
				t.Fatalf("topology %d (nodes=%d disks=%d r=%d tiers=%d): object %d replicas %v, want %v",
					i, cfg.Nodes, cfg.NodeProfile.DisksPerNode, cfg.Replicas, len(cfg.Tiers), obj, c.Replicas(obj), reps)
			}
			if len(reps) > 1 && reps[0].Node == reps[1].Node {
				sameNode++
			}
		}
	}
	if sameNode == 0 {
		t.Fatal("no topology exercised same-node replicas")
	}
}

// TestInsertTopTies pins the hash-collision order the 64-bit scores never
// reach in practice: equal scores keep ascending DiskID order.
func TestInsertTopTies(t *testing.T) {
	a := scoredDisk{DiskID{0, 0}, 5}
	b := scoredDisk{DiskID{0, 1}, 5}
	c := scoredDisk{DiskID{1, 0}, 7}
	var top []scoredDisk
	for _, cd := range []scoredDisk{a, b, c} {
		top = insertTop(top, cd, 2)
	}
	if want := []scoredDisk{c, a}; !slices.Equal(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
}

// TestNewClusterAllocCeiling guards the flat construction: nodes, disks,
// replica lists and per-disk object lists each come from one array, so the
// allocation count is a small constant, whatever the node, disk and object
// counts.
func TestNewClusterAllocCeiling(t *testing.T) {
	big := DefaultConfig()
	big.Nodes, big.NodeProfile.DisksPerNode, big.Objects = 120, 24, 20000
	const limit = 32
	for _, cfg := range []Config{DefaultConfig(), big} {
		avg := testing.AllocsPerRun(3, func() { MustNewCluster(cfg) })
		if avg >= limit {
			t.Fatalf("NewCluster(%d nodes x %d disks, %d objects) allocates %.0f times, want < %d",
				cfg.Nodes, cfg.NodeProfile.DisksPerNode, cfg.Objects, avg, limit)
		}
	}
}

// FuzzPlacement compares NewCluster with referencePlacement on fuzzed
// topologies: node count, disks per node, r, object count and an optional
// two-tier split. It also checks every disk's Objects list against the
// reference layout: each object with a replica on the disk, ascending.
func FuzzPlacement(f *testing.F) {
	f.Add(uint8(30), uint8(12), uint8(3), uint16(3000), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(4), uint8(3), uint16(500), uint8(0), uint16(0))
	f.Add(uint8(30), uint8(12), uint8(3), uint16(3000), uint8(10), uint16(200))
	f.Add(uint8(5), uint8(1), uint8(4), uint16(77), uint8(1), uint16(900))
	f.Add(uint8(1), uint8(7), uint8(1), uint16(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, nodes, disks, r uint8, objects uint16, hot uint8, shareMilli uint16) {
		cfg := DefaultConfig()
		cfg.Nodes = 1 + int(nodes)%48
		cfg.NodeProfile.DisksPerNode = 1 + int(disks)%16
		cfg.Replicas = 1 + int(r)%6
		cfg.Objects = int(objects) % 4000
		if hot > 0 && cfg.Nodes >= 2 {
			h := 1 + int(hot)%(cfg.Nodes-1)
			share := 0.01 + 0.98*float64(shareMilli%1000)/1000
			cfg.Tiers = []Tier{
				{Name: "hot", Nodes: h, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: share},
				{Name: "cold", Nodes: cfg.Nodes - h, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 1 - share},
			}
		}
		if cfg.Validate() != nil {
			return
		}
		c := MustNewCluster(cfg)
		want := referencePlacement(c)
		onDisk := map[DiskID][]int{}
		for obj, reps := range want {
			if !slices.Equal(c.Replicas(obj), reps) {
				t.Fatalf("object %d replicas %v, want %v", obj, c.Replicas(obj), reps)
			}
			for _, id := range reps {
				onDisk[id] = append(onDisk[id], obj)
			}
		}
		for _, n := range c.Nodes() {
			for _, d := range n.Disks {
				if !slices.Equal(d.Objects, onDisk[d.ID]) {
					t.Fatalf("disk %v objects %v, want %v", d.ID, d.Objects, onDisk[d.ID])
				}
			}
		}
	})
}
