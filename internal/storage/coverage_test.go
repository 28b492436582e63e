package storage

import (
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
)

// coverageOK is the from-scratch oracle Covered answers incrementally: it
// reports whether the disks for which spinning returns true cover every
// object, i.e. each object has at least one replica on such a disk whose
// node is powered. Objects without replicas count as covered.
func coverageOK(c *Cluster, spinning func(DiskID) bool) bool {
	for obj := 0; obj < c.Config().Objects; obj++ {
		reps := c.Replicas(obj)
		covered := len(reps) == 0
		for _, id := range reps {
			if c.Node(id.Node).Powered && spinning(id) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// fleetCoverageOK evaluates the oracle on the fleet's current state.
func fleetCoverageOK(c *Cluster) bool {
	return coverageOK(c, func(id DiskID) bool { return c.DiskByID(id).SpunUp() })
}

// checkTally compares a Tally with the separate walks it replaces.
func checkTally(t *testing.T, c *Cluster, step int) {
	t.Helper()
	got := c.Tally()
	boots, shutdowns := 0, 0
	for _, n := range c.Nodes() {
		boots += n.Boots
		shutdowns += n.Shutdowns
	}
	want := FleetTally{
		NodesOn: c.PoweredNodeCount(),
		Boots:   boots, Shutdowns: shutdowns,
		Disk:    c.DiskStatsTotal(),
		Covered: fleetCoverageOK(c),
	}
	if got != want {
		t.Fatalf("step %d: Tally %+v, want %+v", step, got, want)
	}
}

// coverageShapes are the cluster shapes the memo must stay exact on:
// untiered, tiered with every tier wide enough for distinct-node replicas,
// a tier narrower than Replicas (replicas share a node) and no objects.
func coverageShapes() map[string]Config {
	tiered := DefaultConfig()
	tiered.Objects = 300
	tiered.NodeProfile.DisksPerNode = 6
	tiered.Tiers = []Tier{
		{Name: "hot", Nodes: 3, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: 0.3},
		{Name: "cold", Nodes: 5, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 0.7},
	}
	empty := smallConfig()
	empty.Objects = 0
	return map[string]Config{
		"untiered":    smallConfig(),
		"tiered":      tiered,
		"shared-node": tieredConfig(),
		"no-objects":  empty,
	}
}

// TestCoveredMatchesOracle drives each shape through seeded random fleet
// mutations — every path that changes liveness, checkpoint restores onto
// the same and onto a fresh cluster, and bare repeat calls — and requires
// Covered (and the rest of Tally) to agree with the from-scratch oracle
// after every step.
func TestCoveredMatchesOracle(t *testing.T) {
	const steps = 12000
	for name, cfg := range coverageShapes() {
		t.Run(name, func(t *testing.T) {
			c := MustNewCluster(cfg)
			r := rng.New(7, "coverage-"+name)
			nodes, perNode := len(c.Nodes()), cfg.NodeProfile.DisksPerNode
			disk := func() *Disk { return c.Node(r.Intn(nodes)).Disks[r.Intn(perNode)] }
			mask := make([]bool, c.TotalDisks())
			var saved []ClusterState
			verdicts := [2]int{}
			for step := 0; step < steps; step++ {
				switch r.Intn(20) {
				case 0, 1, 2:
					disk().SpinDown()
				case 3, 4, 5, 6:
					disk().SpinUp()
				case 7:
					c.PowerOffNode(r.Intn(nodes))
				case 8, 9:
					c.PowerOnNode(r.Intn(nodes))
				case 10:
					c.FailNode(r.Intn(nodes))
				case 11, 12:
					n := r.Intn(nodes)
					c.RepairNode(n)
					c.PowerOnNode(n)
				case 13:
					keep := r.Uniform(0.3, 1)
					for i := range mask {
						mask[i] = r.Bernoulli(keep)
					}
					c.ApplyDiskPlanMask(mask)
				case 14:
					// A minimal cover: exactly covered when every node is
					// powered, so the next spin-down tends to uncover.
					clear(mask)
					for _, id := range c.MinimalCover() {
						mask[id.Node*perNode+id.Disk] = true
					}
					c.ApplyDiskPlanMask(mask)
				case 15:
					for n := 0; n < nodes; n++ {
						c.RepairNode(n)
						c.PowerOnNode(n)
						for _, d := range c.Node(n).Disks {
							d.SpinUp()
						}
					}
				case 16:
					saved = append(saved, c.State())
				case 17:
					if len(saved) == 0 {
						break
					}
					st := saved[r.Intn(len(saved))]
					if r.Bernoulli(0.5) {
						c = MustNewCluster(cfg) // a restored cluster starts cold
					}
					if err := c.RestoreState(st); err != nil {
						t.Fatal(err)
					}
				default:
					// Interleaved repeat call: nothing changed since the last.
				}
				got, want := c.Covered(), fleetCoverageOK(c)
				if got != want {
					t.Fatalf("step %d: Covered() = %v, oracle %v", step, got, want)
				}
				if again := c.Covered(); again != want {
					t.Fatalf("step %d: repeat Covered() = %v, oracle %v", step, again, want)
				}
				if got {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
				if step%97 == 0 {
					checkTally(t, c, step)
				}
			}
			if cfg.Objects == 0 {
				if verdicts[0] != 0 {
					t.Fatalf("empty cluster reported uncovered %d times", verdicts[0])
				}
				return
			}
			// Both verdicts must be common, or the walk never exercised
			// the transitions the memo has to get right.
			if verdicts[0] < steps/20 || verdicts[1] < steps/20 {
				t.Fatalf("verdicts uncovered=%d covered=%d: mutation mix too one-sided", verdicts[0], verdicts[1])
			}
		})
	}
}

// TestCoveredAllocFree asserts the steady-state Covered allocates nothing,
// on the delta path after a true verdict and on the witness path after a
// false one.
func TestCoveredAllocFree(t *testing.T) {
	c := MustNewCluster(smallConfig())
	d := c.Node(0).Disks[0]
	c.Covered()
	if allocs := testing.AllocsPerRun(200, func() {
		d.SpinDown()
		c.Covered()
		d.SpinUp()
		c.Covered()
	}); allocs != 0 {
		t.Errorf("Covered with every node up allocates %.1f per call pair, want 0", allocs)
	}
	c.PowerOffNode(1)
	c.PowerOffNode(2)
	c.PowerOffNode(3)
	if c.Covered() {
		t.Fatal("three of six nodes down at r=3 should strand some object")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		d.SpinDown()
		c.Covered()
		d.SpinUp()
		c.Covered()
	}); allocs != 0 {
		t.Errorf("Covered while uncovered allocates %.1f per call pair, want 0", allocs)
	}
}
