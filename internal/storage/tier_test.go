package storage

import (
	"testing"

	"repro/internal/power"
)

// tieredConfig builds a 2-tier hot/cold cluster: 2 enterprise nodes with
// the hottest 20% of objects, 4 archive nodes with the cold 80%.
func tieredConfig() Config {
	cfg := DefaultConfig()
	cfg.Objects = 500
	cfg.Tiers = []Tier{
		{Name: "hot", Nodes: 2, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: 0.2},
		{Name: "cold", Nodes: 4, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 0.8},
	}
	return cfg
}

func TestTierValidation(t *testing.T) {
	if err := tieredConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Config)) Config {
		c := tieredConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.Tiers[0].Nodes = 0 }),
		mut(func(c *Config) { c.Tiers[0].ObjectShare = 0.5 }), // shares sum to 1.3
		mut(func(c *Config) { c.Tiers[0].ObjectShare = -0.1 }),
		mut(func(c *Config) { c.Tiers[0].Disk.StandbyW = 100 }), // invalid profile
		mut(func(c *Config) { c.Replicas = 30 }),                // exceeds hot tier disks
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestTieredTopology(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	if len(c.Nodes()) != 6 {
		t.Fatalf("nodes = %d, want 6", len(c.Nodes()))
	}
	for _, n := range c.Nodes() {
		wantTier := 0
		if n.ID >= 2 {
			wantTier = 1
		}
		if n.Tier != wantTier {
			t.Fatalf("node %d tier %d, want %d", n.ID, n.Tier, wantTier)
		}
		wantDisk := "enterprise-7200"
		if n.Tier == 1 {
			wantDisk = "archive-5900"
		}
		if n.Disks[0].Profile.Name != wantDisk {
			t.Fatalf("node %d disk profile %q, want %q", n.ID, n.Disks[0].Profile.Name, wantDisk)
		}
	}
}

func TestTieredPlacementRespectsTiers(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	hotCount := 0
	for obj := 0; obj < c.Config().Objects; obj++ {
		reps := c.Replicas(obj)
		if len(reps) != c.Config().Replicas {
			t.Fatalf("object %d has %d replicas", obj, len(reps))
		}
		wantHot := obj < 100 // 20% of 500
		for _, id := range reps {
			isHot := id.Node < 2
			if isHot != wantHot {
				t.Fatalf("object %d (hot=%v) placed on node %d", obj, wantHot, id.Node)
			}
		}
		if wantHot {
			hotCount++
		}
	}
	if hotCount != 100 {
		t.Fatalf("hot objects = %d, want 100", hotCount)
	}
}

func TestTieredReplicasDistinctWithinTier(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	for obj := 0; obj < c.Config().Objects; obj++ {
		seenNode := map[int]bool{}
		for _, id := range c.Replicas(obj) {
			if seenNode[id.Node] {
				// hot tier has only 2 nodes at r=3: node-distinctness is
				// impossible there, disk-distinctness still required.
				if obj >= 100 {
					t.Fatalf("cold object %d has two replicas on node %d", obj, id.Node)
				}
			}
			seenNode[id.Node] = true
		}
	}
}

func TestTieredDrawUsesTierProfiles(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	// All idle: draw = 6 servers idle + 2x12 enterprise idle + 4x12 archive idle.
	want := 6*110.0 + 24*8.0 + 48*5.0
	if got := float64(c.SlotDrawUtil(nil)); got != want {
		t.Fatalf("tiered idle draw %v, want %v", got, want)
	}
}

func TestTieredZipfReadsPreferHotTier(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	m, err := NewReadModel(c, 500, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step(c)
	}
	hotReads, coldReads := 0, 0
	for _, n := range c.Nodes() {
		for _, d := range n.Disks {
			if n.Tier == 0 {
				hotReads += d.Stats.Reads
			} else {
				coldReads += d.Stats.Reads
			}
		}
	}
	if hotReads <= coldReads {
		t.Fatalf("Zipf reads should concentrate on the hot tier: hot=%d cold=%d", hotReads, coldReads)
	}
}

func TestTieredCoverage(t *testing.T) {
	c := MustNewCluster(tieredConfig())
	cover := c.MinimalCover()
	active := map[DiskID]bool{}
	hasCold := false
	for _, id := range cover {
		active[id] = true
		if id.Node >= 2 {
			hasCold = true
		}
	}
	if !coverageOK(c, inSet(active)) {
		t.Fatal("tiered cover does not cover")
	}
	if !hasCold {
		t.Fatal("cover must include cold-tier disks (cold objects live only there)")
	}
}
