package storage

import (
	"math/bits"

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

// coverScratch is the set-cover working memory. NewCluster sizes it and
// every cover call overwrites it, so a warm call allocates only the cover
// it returns, and cover calls on one cluster must not run concurrently.
type coverScratch struct {
	admit     []bool       // node id -> the cover may use the node
	uncovered []bool       // object id -> not yet covered
	heap      []coverEntry // candidate disks, a binary heap in coverLess order
	picked    []uint64     // bitset of the chosen disks' flat indices
}

// coverEntry is a candidate disk and an upper bound on its coverage gain:
// the gain when the entry was last keyed, which only falls as objects get
// covered.
type coverEntry struct {
	gain int32
	disk int32 // flat index node*DisksPerNode + disk
}

// newCoverScratch sizes the set-cover scratch for c.
func (c *Cluster) newCoverScratch() coverScratch {
	return coverScratch{
		admit:     make([]bool, len(c.nodes)),
		uncovered: make([]bool, len(c.placement)),
		heap:      make([]coverEntry, 0, c.TotalDisks()),
		picked:    make([]uint64, (c.TotalDisks()+63)/64),
	}
}

// uncoveredOn is the set-cover pre-pass over the nodes set in admit. It
// marks every object with a replica on such a node as uncovered in the
// scratch mask and counts those objects (remaining) and the ones with no
// replica there (uncoverable). Objects without replicas count as neither.
func (c *Cluster) uncoveredOn(admit []bool) (remaining, uncoverable int) {
	uncovered := c.setCover.uncovered
	for obj, reps := range c.placement {
		has := false
		for _, id := range reps {
			if admit[id.Node] {
				has = true
				break
			}
		}
		uncovered[obj] = has
		switch {
		case has:
			remaining++
		case len(reps) > 0:
			uncoverable++
		}
	}
	return remaining, uncoverable
}

// pickCover runs the classic greedy set-cover heuristic (ln n
// approximation) over the disks of the nodes set in admit: repeatedly take
// the disk covering the most still-uncovered objects, ties broken on
// lowest DiskID for determinism, until the remaining objects are covered.
// The uncovered mask and remaining come from uncoveredOn, so every
// uncovered object has a replica on some admitted disk. The returned slice
// is sorted by DiskID.
//
// It is Minoux's accelerated (lazy) greedy, which picks exactly what a
// rescan of every disk per pick would. The heap orders disks by (gain
// desc, DiskID asc) under keys that may be stale. A disk's gain only falls
// as objects get covered, so every key bounds its disk's fresh gain from
// above. Once the top entry is re-keyed with its fresh gain and still
// leads, no other disk can beat it, on gain or on the DiskID tie-break.
func (c *Cluster) pickCover(admit []bool, remaining int) []DiskID {
	s := &c.setCover
	perNode := c.cfg.NodeProfile.DisksPerNode
	h, picks := s.heap[:0], 0
	clear(s.picked)
	if remaining > 0 {
		for _, n := range c.nodes {
			if !admit[n.ID] {
				continue
			}
			for k, d := range n.Disks {
				if g := c.uncoveredCount(d); g > 0 {
					h = append(h, coverEntry{gain: g, disk: int32(n.ID*perNode + k)})
				}
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
	}
	for remaining > 0 && len(h) > 0 {
		top := h[0]
		i := int(top.disk)
		d := c.nodes[i/perNode].Disks[i%perNode]
		if g := c.uncoveredCount(d); g < top.gain {
			if g == 0 {
				h = popCover(h)
				continue
			}
			h[0].gain = g
			if siftDown(h, 0) != 0 {
				continue // another disk leads now
			}
		}
		s.picked[i>>6] |= 1 << (i & 63)
		picks++
		for _, obj := range d.Objects {
			if s.uncovered[obj] {
				s.uncovered[obj] = false
				remaining--
			}
		}
		h = popCover(h)
	}
	s.heap = h[:0]
	if picks == 0 {
		return nil
	}
	cover := make([]DiskID, 0, picks)
	for w, word := range s.picked {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			cover = append(cover, DiskID{Node: i / perNode, Disk: i % perNode})
		}
	}
	return cover
}

// uncoveredCount returns how many of d's objects are still uncovered: its
// fresh coverage gain.
func (c *Cluster) uncoveredCount(d *Disk) int32 {
	var g int32
	for _, obj := range d.Objects {
		if c.setCover.uncovered[obj] {
			g++
		}
	}
	return g
}

// coverLess orders the cover heap: higher gain first, then lower flat disk
// index, which is DiskID order.
func coverLess(a, b coverEntry) bool {
	return a.gain > b.gain || (a.gain == b.gain && a.disk < b.disk)
}

// siftDown restores the heap order below h[i] and returns the entry's
// final index.
func siftDown(h []coverEntry, i int) int {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && coverLess(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && coverLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return i
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// popCover removes the heap's top entry.
func popCover(h []coverEntry) []coverEntry {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDown(h, 0)
	return h
}

// greedyCover covers every object on the nodes set in admit. It returns
// (nil, false) without running the pick loop when some object has no
// replica there.
func (c *Cluster) greedyCover(admit []bool) ([]DiskID, bool) {
	remaining, uncoverable := c.uncoveredOn(admit)
	if uncoverable > 0 {
		return nil, false
	}
	return c.pickCover(admit, remaining), true
}

// MinimalCover computes a small set of disks that covers every object,
// considering all nodes regardless of power state (the caller powers the
// hosting nodes as needed).
func (c *Cluster) MinimalCover() []DiskID {
	admit := c.setCover.admit
	for i := range admit {
		admit[i] = true
	}
	cover, _ := c.greedyCover(admit)
	return cover
}

// CoverOnNodeMask computes a cover restricted to the nodes set in a mask
// indexed by node id; a short mask reads as false for the missing tail.
// The second return is false when those nodes cannot cover every object
// (some object has no replica there); the simulator uses it to check
// whether a consolidation plan is compatible with availability.
func (c *Cluster) CoverOnNodeMask(nodes []bool) ([]DiskID, bool) {
	admit := c.setCover.admit
	clear(admit[copy(admit, nodes):])
	return c.greedyCover(admit)
}

// PartialCover covers every object that still has a replica on a
// non-failed node and reports how many objects are uncoverable (every
// replica on a failed node). The failure-injection path uses it while a
// failure partitions the placement and full coverage is impossible.
func (c *Cluster) PartialCover() ([]DiskID, int) {
	admit := c.setCover.admit
	for i, n := range c.nodes {
		admit[i] = !n.Failed
	}
	remaining, uncoverable := c.uncoveredOn(admit)
	return c.pickCover(admit, remaining), uncoverable
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
