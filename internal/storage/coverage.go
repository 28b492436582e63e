package storage

import (
	"sort"

	"repro/internal/units"
)

// CoverageOK reports whether the disks for which spinning returns true
// cover every object, i.e. each object has at least one replica on such a
// disk whose node is powered. Only objects with at least one replica are
// considered (an empty cluster is trivially covered).
func (c *Cluster) CoverageOK(spinning func(DiskID) bool) bool {
	for _, reps := range c.placement {
		covered := len(reps) == 0
		for _, id := range reps {
			if c.nodes[id.Node].Powered && spinning(id) {
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

// Covered evaluates CoverageOK on the fleet's current state: every object
// has a replica on a spun-up disk of a powered node.
func (c *Cluster) Covered() bool {
	return c.CoverageOK(func(id DiskID) bool { return c.DiskByID(id).SpunUp() })
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
