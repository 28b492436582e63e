package storage

import (
	"math/bits"
	"sort"

	"repro/internal/units"
)

// coverMemo remembers the last coverage verdict so Covered can answer from
// the change since its last call. Disk sets are bitsets over the flat disk
// index node*DisksPerNode + disk; a disk is live when it spins on a
// powered node.
type coverMemo struct {
	live    []uint64 // the live set, gathered afresh by every walk
	cover   []uint64 // when ok: a disk set that covers every object
	valid   bool     // a verdict is remembered; false until the first call
	ok      bool     // the remembered verdict
	witness int      // an uncovered object when !ok
}

// FleetTally is the fleet state one walk over the nodes and disks yields:
// the counters a slot trace differences and the replica-coverage verdict.
type FleetTally struct {
	// NodesOn counts powered nodes.
	NodesOn int
	// Boots and Shutdowns are the cumulative node power transitions.
	Boots, Shutdowns int
	// Disk sums every disk's Stats, as DiskStatsTotal does.
	Disk DiskStats
	// Covered is Covered's verdict on the walked state.
	Covered bool
}

// Tally walks the fleet once, gathering the FleetTally counters and the
// live disk set, and settles coverage against that set.
func (c *Cluster) Tally() FleetTally {
	var t FleetTally
	live := c.cov.live
	clear(live)
	perNode := c.cfg.NodeProfile.DisksPerNode
	for _, n := range c.nodes {
		t.Boots += n.Boots
		t.Shutdowns += n.Shutdowns
		if n.Powered {
			t.NodesOn++
		}
		base := n.ID * perNode
		for k, d := range n.Disks {
			t.Disk.SpinUps += d.Stats.SpinUps
			t.Disk.SpinDowns += d.Stats.SpinDowns
			t.Disk.TransitionEnergy += d.Stats.TransitionEnergy
			t.Disk.Reads += d.Stats.Reads
			t.Disk.ColdReads += d.Stats.ColdReads
			if n.Powered && d.SpunUp() {
				i := base + k
				live[i>>6] |= 1 << (i & 63)
			}
		}
	}
	t.Covered = c.settleCoverage()
	return t
}

// Covered reports whether every object has a replica on a spun-up disk of
// a powered node (objects without replicas count as covered, so an empty
// cluster is trivially covered).
//
// It answers from the change since its last call. After a true verdict it
// holds a covering disk set; a disk joining the live set cannot uncover
// anything, so only the objects on covering disks that left it are
// rechecked. After a false verdict the remembered uncovered object is
// rechecked first, and everything only once it is covered again. The memo
// compares disk sets, not mutation hooks, so every path that changes the
// fleet stays exact. Covered mutates that memo, so a cluster is not safe
// for concurrent Covered calls; every Simulator owns its own cluster.
func (c *Cluster) Covered() bool { return c.Tally().Covered }

// settleCoverage computes the verdict for the live set in cov.live from the
// remembered one.
func (c *Cluster) settleCoverage() bool {
	m := &c.cov
	switch {
	case m.valid && m.ok:
		m.ok, m.witness = c.recheckLost(m.cover, m.live)
	case m.valid && !c.objectLive(m.witness, m.live):
		// The remembered object is still uncovered.
	default:
		m.ok, m.witness = c.scanCoverage(m.live)
		if m.ok {
			copy(m.cover, m.live)
		}
	}
	m.valid = true
	return m.ok
}

// scanCoverage checks every object against the live set and returns the
// verdict with the first uncovered object as witness.
func (c *Cluster) scanCoverage(live []uint64) (bool, int) {
	for obj := range c.placement {
		if !c.objectLive(obj, live) {
			return false, obj
		}
	}
	return true, 0
}

// recheckLost is the delta check after a true verdict: cover covers every
// object, so only objects on cover's disks that left the live set can have
// lost coverage. On a true verdict it leaves cover inside the live set —
// cover∩live, plus one live replica disk for each rechecked object that set
// no longer covers — so a disk woken for a slot never enters it, and its
// leaving costs nothing.
func (c *Cluster) recheckLost(cover, live []uint64) (bool, int) {
	perNode := c.cfg.NodeProfile.DisksPerNode
	for w := range cover {
		for lost := cover[w] &^ live[w]; lost != 0; lost &= lost - 1 {
			i := w<<6 + bits.TrailingZeros64(lost)
			for _, obj := range c.nodes[i/perNode].Disks[i%perNode].Objects {
				if c.replicaIn(obj, cover, live) >= 0 {
					continue
				}
				j := c.replicaIn(obj, live, live)
				if j < 0 {
					return false, obj
				}
				cover[j>>6] |= 1 << (j & 63)
			}
		}
	}
	for w := range cover {
		cover[w] &= live[w]
	}
	return true, 0
}

// objectLive reports whether obj has a replica in the live set, or none at
// all.
func (c *Cluster) objectLive(obj int, live []uint64) bool {
	return len(c.placement[obj]) == 0 || c.replicaIn(obj, live, live) >= 0
}

// replicaIn returns the flat index of obj's first replica disk in both
// disk sets a and b, or -1 when there is none.
func (c *Cluster) replicaIn(obj int, a, b []uint64) int {
	perNode := c.cfg.NodeProfile.DisksPerNode
	for _, id := range c.placement[obj] {
		i := id.Node*perNode + id.Disk
		if a[i>>6]&b[i>>6]&(1<<(i&63)) != 0 {
			return i
		}
	}
	return -1
}

// uncoveredOn is the set-cover pre-pass over the nodes allowed admits. It
// marks every object with a replica on such a node as uncovered and counts
// those objects (remaining) and the ones with no replica there
// (uncoverable). Objects without replicas count as neither.
func (c *Cluster) uncoveredOn(allowed func(n *Node) bool) (uncovered []bool, remaining, uncoverable int) {
	uncovered = make([]bool, len(c.placement))
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
	return uncovered, remaining, uncoverable
}

// pickCover runs the classic greedy set-cover heuristic (ln n
// approximation) over the disks of the nodes allowed admits: repeatedly
// take the disk covering the most still-uncovered objects, ties broken on
// lowest DiskID for determinism, until the remaining objects are covered.
// uncovered and remaining come from uncoveredOn, so every uncovered object
// has a replica on some admitted disk. The returned slice is sorted by
// DiskID.
//
// The implementation is deliberately allocation-light — a []bool uncovered
// mask and integer counters — because the simulator calls it once per slot
// on clusters with hundreds of disks and thousands of objects.
func (c *Cluster) pickCover(allowed func(n *Node) bool, uncovered []bool, remaining int) []DiskID {
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
			// Unreachable: uncoveredOn marks only objects with a replica
			// on an admitted disk.
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
	return chosen
}

// greedyCover covers every object on the nodes allowed admits. It returns
// (nil, false) without running the pick loop when some object has no
// replica there.
func (c *Cluster) greedyCover(allowed func(n *Node) bool) ([]DiskID, bool) {
	uncovered, remaining, uncoverable := c.uncoveredOn(allowed)
	if uncoverable > 0 {
		return nil, false
	}
	return c.pickCover(allowed, uncovered, remaining), true
}

// MinimalCover computes a small set of disks that covers every object,
// considering all nodes regardless of power state (the caller powers the
// hosting nodes as needed).
func (c *Cluster) MinimalCover() []DiskID {
	cover, _ := c.greedyCover(func(*Node) bool { return true })
	return cover
}

// CoverOnNodeMask computes a cover restricted to the nodes set in a mask
// indexed by node id; a short mask reads as false for the missing tail.
// The second return is false when those nodes cannot cover every object
// (some object has no replica there); the simulator uses it to check
// whether a consolidation plan is compatible with availability.
func (c *Cluster) CoverOnNodeMask(nodes []bool) ([]DiskID, bool) {
	return c.greedyCover(func(n *Node) bool { return n.ID < len(nodes) && nodes[n.ID] })
}

// PartialCover covers every object that still has a replica on a
// non-failed node and reports how many objects are uncoverable (every
// replica on a failed node). The failure-injection path uses it while a
// failure partitions the placement and full coverage is impossible.
func (c *Cluster) PartialCover() ([]DiskID, int) {
	healthy := func(n *Node) bool { return !n.Failed }
	uncovered, remaining, uncoverable := c.uncoveredOn(healthy)
	return c.pickCover(healthy, uncovered, remaining), uncoverable
}

func lessDisk(a, b DiskID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Disk < b.Disk
}

// ApplyDiskPlanMask spins disks up or down so that exactly the disks set in
// keep, a mask over flat disk indices (node*DisksPerNode + disk), are
// spinning on powered nodes; disks on powered-off nodes stay parked. The
// mask must span every disk. It returns the total transition energy
// charged.
func (c *Cluster) ApplyDiskPlanMask(keep []bool) units.Energy {
	perNode := c.cfg.NodeProfile.DisksPerNode
	var e units.Energy
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		base := n.ID * perNode
		for _, d := range n.Disks {
			if keep[base+d.ID.Disk] {
				e += d.SpinUp()
			} else {
				e += d.SpinDown()
			}
		}
	}
	return e
}
