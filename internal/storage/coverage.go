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

// greedyCover runs the classic greedy set-cover heuristic (ln n
// approximation) over the disks for which allowed returns true: repeatedly
// take the disk covering the most still-uncovered objects, ties broken on
// lowest DiskID for determinism. It returns (nil, false) when the allowed
// disks cannot cover every object. The returned slice is sorted by DiskID.
//
// The implementation is deliberately allocation-light — a []bool uncovered
// mask and integer counters — because the simulator calls it once per slot
// on clusters with hundreds of disks and thousands of objects.
func (c *Cluster) greedyCover(allowed func(n *Node) bool) ([]DiskID, bool) {
	uncovered := make([]bool, len(c.placement))
	remaining := 0
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
			return nil, false
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
		if best == nil || bestGain == 0 {
			// Unreachable for a well-formed placement: every uncovered
			// object has a replica on some allowed disk.
			return nil, false
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
	return chosen, true
}

// MinimalCover computes a small set of disks that covers every object,
// considering all nodes regardless of power state (the caller powers the
// hosting nodes as needed).
func (c *Cluster) MinimalCover() []DiskID {
	cover, ok := c.greedyCover(func(*Node) bool { return true })
	if !ok {
		// Only possible with zero objects, where greedyCover returns an
		// empty cover successfully; defensive fallback.
		return nil
	}
	return cover
}

// CoverOnNodes computes a cover restricted to the given node set. The
// second return is false when the node set cannot cover all objects (some
// object has no replica there); policies use this to check whether a
// consolidation plan is compatible with availability.
func (c *Cluster) CoverOnNodes(nodes map[int]bool) ([]DiskID, bool) {
	return c.greedyCover(func(n *Node) bool { return nodes[n.ID] })
}

// CoverOnNodeMask is CoverOnNodes with the node set given as a mask indexed
// by node id, the representation the simulator's per-slot scratch state
// uses. A short mask reads as false for the missing tail.
func (c *Cluster) CoverOnNodeMask(nodes []bool) ([]DiskID, bool) {
	return c.greedyCover(func(n *Node) bool { return n.ID < len(nodes) && nodes[n.ID] })
}

// PartialCoverOnNodes covers every object that still has a replica on an
// allowed node and reports how many objects are uncoverable (all replicas
// on disallowed — e.g. failed — nodes). Used by the failure-injection path,
// where full coverage may be temporarily impossible.
func (c *Cluster) PartialCoverOnNodes(nodes map[int]bool) ([]DiskID, int) {
	allowed := func(n *Node) bool { return nodes[n.ID] }
	uncovered := make([]bool, len(c.placement))
	remaining := 0
	uncoverable := 0
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
		if best == nil || bestGain == 0 {
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

func lessDisk(a, b DiskID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Disk < b.Disk
}

// ApplyDiskPlan spins disks up or down so that exactly the disks in keep
// (plus any on powered-off nodes, which stay parked) are spinning on
// powered nodes. It returns the total transition energy charged.
func (c *Cluster) ApplyDiskPlan(keep map[DiskID]bool) units.Energy {
	var e units.Energy
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		for _, d := range n.Disks {
			if keep[d.ID] {
				e += d.SpinUp()
			} else {
				e += d.SpinDown()
			}
		}
	}
	return e
}

// ApplyDiskPlanMask is ApplyDiskPlan with the keep set given as a mask over
// flat disk indices (node*DisksPerNode + disk), the representation the
// simulator's per-slot scratch state uses. The mask must span every disk.
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
