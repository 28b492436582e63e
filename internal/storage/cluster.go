package storage

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// Tier describes one homogeneous slice of a tiered cluster: a node count
// with its own server and disk power profiles, holding a share of the
// object population. Object ids double as popularity ranks (rank 0 is the
// hottest under the Zipf read model), so the first tier's share takes the
// hottest objects — the classic hot/cold split.
type Tier struct {
	// Name labels the tier in reports ("hot", "cold", ...).
	Name string
	// Nodes is the tier's server count.
	Nodes int
	// Server and Disk are the tier's power profiles.
	Server power.ServerProfile
	Disk   power.DiskProfile
	// ObjectShare is the fraction of objects placed in this tier; shares
	// must sum to 1 across tiers.
	ObjectShare float64
}

// Config describes a storage cluster.
type Config struct {
	// Nodes is the number of storage servers (ignored when Tiers is set:
	// the tier node counts govern).
	Nodes int
	// NodeProfile bundles the server and disk power models and the disk
	// count per node. With Tiers set, only DisksPerNode is used (uniform
	// across tiers); the per-tier profiles govern power.
	NodeProfile power.NodeProfile
	// CPUPerNode is the schedulable CPU capacity of a node, in cores.
	CPUPerNode float64
	// RAMPerNodeGB is the schedulable memory capacity of a node.
	RAMPerNodeGB float64
	// Objects is the number of data objects placed on the cluster.
	Objects int
	// Replicas is the replication factor r; each object lands on r
	// distinct disks, on distinct nodes when the tier has >= r nodes.
	Replicas int
	// Tiers optionally splits the cluster into storage tiers; nil means a
	// homogeneous cluster using NodeProfile throughout.
	Tiers []Tier
}

// DefaultConfig returns the reference small/medium storage data center used
// across the experiment suite: 30 nodes x 12 disks, 12 cores and 32 GB per
// node, 3000 objects at r=3.
func DefaultConfig() Config {
	return Config{
		Nodes:        30,
		NodeProfile:  power.DefaultNode(),
		CPUPerNode:   12,
		RAMPerNodeGB: 32,
		Objects:      3000,
		Replicas:     3,
	}
}

// TotalNodes returns the effective node count (tier sums when tiered).
func (c Config) TotalNodes() int {
	if len(c.Tiers) == 0 {
		return c.Nodes
	}
	total := 0
	for _, t := range c.Tiers {
		total += t.Nodes
	}
	return total
}

// Validate reports a descriptive error for inconsistent parameters.
func (c Config) Validate() error {
	if c.TotalNodes() <= 0 {
		return fmt.Errorf("storage: need at least one node, got %d", c.TotalNodes())
	}
	if err := c.NodeProfile.Validate(); err != nil {
		return err
	}
	if c.CPUPerNode <= 0 || c.RAMPerNodeGB <= 0 {
		return fmt.Errorf("storage: node capacities must be positive (cpu=%v ram=%v)", c.CPUPerNode, c.RAMPerNodeGB)
	}
	if c.Objects < 0 {
		return fmt.Errorf("storage: negative object count %d", c.Objects)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("storage: replication factor must be >= 1, got %d", c.Replicas)
	}
	if len(c.Tiers) > 0 {
		shares := 0.0
		for i, t := range c.Tiers {
			if t.Nodes <= 0 {
				return fmt.Errorf("storage: tier %d (%s) has %d nodes", i, t.Name, t.Nodes)
			}
			if err := t.Server.Validate(); err != nil {
				return fmt.Errorf("storage: tier %s: %w", t.Name, err)
			}
			if err := t.Disk.Validate(); err != nil {
				return fmt.Errorf("storage: tier %s: %w", t.Name, err)
			}
			if t.ObjectShare < 0 || t.ObjectShare > 1 {
				return fmt.Errorf("storage: tier %s share %v outside [0,1]", t.Name, t.ObjectShare)
			}
			if c.Replicas > t.Nodes*c.NodeProfile.DisksPerNode {
				return fmt.Errorf("storage: replication factor %d exceeds tier %s disk count %d",
					c.Replicas, t.Name, t.Nodes*c.NodeProfile.DisksPerNode)
			}
			shares += t.ObjectShare
		}
		if shares < 0.999 || shares > 1.001 {
			return fmt.Errorf("storage: tier object shares sum to %v, want 1", shares)
		}
	} else if c.Replicas > c.Nodes*c.NodeProfile.DisksPerNode {
		return fmt.Errorf("storage: replication factor %d exceeds disk count %d",
			c.Replicas, c.Nodes*c.NodeProfile.DisksPerNode)
	}
	return nil
}

// Node is one storage server. Its mutable state is mirrored by the
// cluster-level snapshot (NodeSnap inside ClusterState).
//
//gm:statemirror Cluster.State Cluster.RestoreState
type Node struct {
	// ID is the node index.
	ID int //gm:ephemeral identity, fixed by Config topology
	// Tier is the tier index the node belongs to (0 when untiered).
	Tier int //gm:ephemeral configuration, fixed by Config topology
	// Server is the node's power profile (tier-specific when tiered).
	Server power.ServerProfile //gm:ephemeral configuration, not state
	// Powered reports whether the server is on. Disks on a powered-off
	// node draw nothing and cannot serve reads.
	Powered bool
	// Failed marks a crashed node: it cannot be powered on until repaired
	// and its replicas are unreachable.
	Failed bool
	// Disks are the node's spindles.
	Disks []*Disk
	// Boots counts power-on transitions, for overhead accounting.
	Boots int
	// Shutdowns counts power-off transitions.
	Shutdowns int
	// Failures counts crashes.
	Failures int
}

// Cluster is the full storage system plus the object placement map.
//
//gm:statemirror State RestoreState
type Cluster struct {
	cfg       Config //gm:ephemeral configuration, re-supplied by NewCluster at restore
	nodes     []*Node
	placement [][]DiskID   // object id -> replica disk ids //gm:ephemeral pure function of Config (deterministic rendezvous hash)
	cov       coverMemo    //gm:ephemeral coverage memo, a pure function of fleet state; a restored cluster starts cold
	setCover  coverScratch //gm:ephemeral set-cover scratch, overwritten by every cover call
}

// NewCluster builds a cluster with every node powered on, all disks idle,
// and a deterministic rendezvous-hash placement of objects (tier-aware
// when Config.Tiers is set).
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Normalize: materialize the per-node profiles.
	type nodeSpec struct {
		tier   int
		server power.ServerProfile
		disk   power.DiskProfile
	}
	specs := make([]nodeSpec, 0, cfg.TotalNodes())
	if len(cfg.Tiers) == 0 {
		for n := 0; n < cfg.Nodes; n++ {
			specs = append(specs, nodeSpec{0, cfg.NodeProfile.Server, cfg.NodeProfile.Disk})
		}
	} else {
		for ti, t := range cfg.Tiers {
			for n := 0; n < t.Nodes; n++ {
				specs = append(specs, nodeSpec{ti, t.Server, t.Disk})
			}
		}
	}
	cfg.Nodes = len(specs)

	// Nodes and disks live in one array each, carved into the pointer
	// lists the rest of the package walks: construction costs a handful
	// of allocations whatever the fleet size.
	c := &Cluster{cfg: cfg}
	perNode := cfg.NodeProfile.DisksPerNode
	nodes := make([]Node, cfg.Nodes)
	disks := make([]Disk, cfg.Nodes*perNode)
	diskPtrs := make([]*Disk, len(disks))
	c.nodes = make([]*Node, cfg.Nodes)
	for n := range specs {
		node := &nodes[n]
		*node = Node{ID: n, Tier: specs[n].tier, Server: specs[n].server, Powered: true}
		node.Disks = diskPtrs[n*perNode : (n+1)*perNode : (n+1)*perNode]
		for d := range node.Disks {
			disk := &disks[n*perNode+d]
			*disk = Disk{
				ID:      DiskID{Node: n, Disk: d},
				Profile: specs[n].disk,
				State:   power.DiskIdle,
			}
			node.Disks[d] = disk
		}
		c.nodes[n] = node
	}
	c.placeObjects()
	words := (c.TotalDisks() + 63) / 64
	c.cov = coverMemo{live: make([]uint64, words), cover: make([]uint64, words)}
	c.setCover = c.newCoverScratch()
	return c, nil
}

// The rendezvous hash mixes one odd multiplier per coordinate.
const (
	objectMul = 0x9E3779B97F4A7C15
	nodeMul   = 0xC2B2AE3D27D4EB4F
	diskMul   = 0x165667B19E3779F9
)

// rendezvousScore hashes (object, disk) to a comparable weight using a
// splitmix64-style finalizer, which gives the full-avalanche mixing that
// highest-random-weight placement needs for balance.
func rendezvousScore(object int, id DiskID) uint64 {
	return mix64(uint64(object)*objectMul ^ diskTerm(id))
}

// diskTerm is the disk's share of the hashed key. XOR is associative, so
// placeObjects computes it once per disk and reuses it for every object.
func diskTerm(id DiskID) uint64 {
	return uint64(id.Node)*nodeMul ^ uint64(id.Disk)*diskMul
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// tierOf returns the tier index an object belongs to: object ids double as
// popularity ranks, so tiers take consecutive rank ranges by their shares
// (the first tier gets the hottest objects).
func (c *Cluster) tierOf(obj int) int {
	if len(c.cfg.Tiers) == 0 {
		return 0
	}
	frac := (float64(obj) + 0.5) / float64(c.cfg.Objects)
	acc := 0.0
	for ti, t := range c.cfg.Tiers {
		acc += t.ObjectShare
		if frac <= acc {
			return ti
		}
	}
	return len(c.cfg.Tiers) - 1
}

// scoredDisk is a placement candidate: a disk and its rendezvous weight for
// the object being placed.
type scoredDisk struct {
	id    DiskID
	score uint64
}

// insertTop adds cd to top, which holds at most k candidates ordered by
// score descending, and returns the updated slice. Candidates must arrive
// in ascending DiskID order: a newcomer then ranks after every held
// candidate of equal score, so top is ordered by (score desc, DiskID asc).
func insertTop(top []scoredDisk, cd scoredDisk, k int) []scoredDisk {
	i := len(top)
	for i > 0 && top[i-1].score < cd.score {
		i--
	}
	if i == k {
		return top
	}
	if len(top) < k {
		top = append(top, scoredDisk{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = cd
	return top
}

// bestDisk returns the highest rendezvous score among the disks whose hash
// terms are given, for the object whose key is key, and the position of
// the first disk with that score. It is the placement pass's inner loop,
// kept in its own small function so its loop state stays in registers.
func bestDisk(key uint64, terms []uint64) (score uint64, disk int) {
	score = mix64(key ^ terms[0])
	for d := 1; d < len(terms); d++ {
		if s := mix64(key ^ terms[d]); s > score {
			score, disk = s, d
		}
	}
	return score, disk
}

// placeObjects assigns each object to Replicas distinct disks by rendezvous
// (highest-random-weight) hashing, constrained to distinct nodes whenever
// the eligible node set has at least Replicas nodes. With tiers, an
// object's candidates are restricted to its tier's disks. Placement is a
// pure function of (object count, topology), so experiments with identical
// topology see identical layouts.
//
// The definition is: sort the eligible disks by (score desc, DiskID asc)
// and take them greedily, skipping a node already used when nodes must be
// distinct. A node's first disk in that order is its best disk, so the
// greedy pick is the Replicas best nodes ranked by their best disk; without
// the node constraint it is the Replicas best disks. placeObjects computes
// exactly that in one pass over the disks, keeping the running top
// Replicas in a small insertion buffer: O(disks·Replicas) per object, with
// no per-object scratch beyond the replica list itself.
//
// The pass runs over flat tables: each disk's hash term is computed once,
// tiers are contiguous node ranges (NewCluster lays them out in order), and
// a candidate that cannot beat the weakest held one skips insertTop, since
// insertTop would return the buffer unchanged. Each disk's Objects list is
// then counted and filled into one exactly sized array, in ascending
// object order.
func (c *Cluster) placeObjects() {
	r := c.cfg.Replicas
	perNode := c.cfg.NodeProfile.DisksPerNode
	terms := make([]uint64, c.TotalDisks())
	for i := range terms {
		terms[i] = diskTerm(DiskID{Node: i / perNode, Disk: i % perNode})
	}
	// tierEnd[t] is one past tier t's last node; tier t starts where tier
	// t-1 ends. Untiered clusters are one tier spanning every node.
	tierEnd := make([]int, max(1, len(c.cfg.Tiers)))
	for _, n := range c.nodes {
		tierEnd[n.Tier] = n.ID + 1
	}

	c.placement = make([][]DiskID, c.cfg.Objects)
	backing := make([]DiskID, c.cfg.Objects*r)
	counts := make([]int, len(terms)+1) // counts[i+1]: objects on flat disk i
	top := make([]scoredDisk, 0, r)
	for obj := 0; obj < c.cfg.Objects; obj++ {
		tier := c.tierOf(obj)
		lo := 0
		if tier > 0 {
			lo = tierEnd[tier-1]
		}
		hi := tierEnd[tier]
		key := uint64(obj) * objectMul
		top = top[:0]
		if hi-lo >= r {
			for n := lo; n < hi; n++ {
				s, d := bestDisk(key, terms[n*perNode:(n+1)*perNode])
				if len(top) == r && s <= top[r-1].score {
					continue
				}
				top = insertTop(top, scoredDisk{DiskID{n, d}, s}, r)
			}
		} else {
			for i := lo * perNode; i < hi*perNode; i++ {
				s := mix64(key ^ terms[i])
				if len(top) == r && s <= top[r-1].score {
					continue
				}
				top = insertTop(top, scoredDisk{DiskID{i / perNode, i % perNode}, s}, r)
			}
		}
		replicas := backing[obj*r : obj*r+len(top) : obj*r+len(top)]
		for i, cd := range top {
			replicas[i] = cd.id
			counts[cd.id.Node*perNode+cd.id.Disk+1]++
		}
		c.placement[obj] = replicas
	}

	// Count, then fill: after the prefix sum, disk i's list is
	// objects[counts[i]:counts[i+1]]. Its capacity is exact, so the appends
	// below fill it in place, in ascending object order.
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	objects := make([]int, counts[len(counts)-1])
	for n, node := range c.nodes {
		for d, disk := range node.Disks {
			if lo, hi := counts[n*perNode+d], counts[n*perNode+d+1]; hi > lo {
				disk.Objects = objects[lo:lo:hi]
			}
		}
	}
	for obj, reps := range c.placement {
		for _, id := range reps {
			d := c.nodes[id.Node].Disks[id.Disk]
			d.Objects = append(d.Objects, obj)
		}
	}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the node list. Callers must not reorder it.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given id.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// DiskByID resolves a DiskID.
func (c *Cluster) DiskByID(id DiskID) *Disk { return c.nodes[id.Node].Disks[id.Disk] }

// Replicas returns the replica disk ids of an object.
func (c *Cluster) Replicas(object int) []DiskID { return c.placement[object] }

// TotalDisks returns the disk count.
func (c *Cluster) TotalDisks() int {
	return c.cfg.Nodes * c.cfg.NodeProfile.DisksPerNode
}

// FailNode crashes a node: it loses power immediately (no orderly
// shutdown transients are charged — the server just died) and stays
// unavailable until RepairNode. It returns the number of objects that had
// a replica on the node (the redundancy the failure degraded). Failing a
// failed node is a no-op returning 0.
func (c *Cluster) FailNode(id int) int {
	n := c.nodes[id]
	if n.Failed {
		return 0
	}
	n.Failed = true
	n.Failures++
	if n.Powered {
		n.Powered = false
		for _, d := range n.Disks {
			if d.SpunUp() {
				// Platters stop without a managed transition; no energy is
				// charged but the state must reflect reality.
				d.State = power.DiskStandby
			}
		}
	}
	touched := make(map[int]bool)
	for _, d := range n.Disks {
		for _, obj := range d.Objects {
			touched[obj] = true
		}
	}
	return len(touched)
}

// RepairNode returns a failed node to service (powered off, disks parked).
// Repairing a healthy node is a no-op.
func (c *Cluster) RepairNode(id int) {
	n := c.nodes[id]
	n.Failed = false
}

// PowerOnNode boots a node (all its disks wake to idle) and returns the
// transition energy charged. Failed nodes refuse to boot.
func (c *Cluster) PowerOnNode(id int) units.Energy {
	n := c.nodes[id]
	if n.Powered || n.Failed {
		return 0
	}
	n.Powered = true
	n.Boots++
	e := n.Server.BootEnergyWh
	for _, d := range n.Disks {
		e += d.SpinUp()
	}
	return e
}

// PowerOffNode shuts a node down (disks are parked first) and returns the
// transition energy charged.
func (c *Cluster) PowerOffNode(id int) units.Energy {
	n := c.nodes[id]
	if !n.Powered {
		return 0
	}
	var e units.Energy
	for _, d := range n.Disks {
		e += d.SpinDown()
	}
	n.Powered = false
	n.Shutdowns++
	e += n.Server.ShutdownEnergyWh
	return e
}

// SlotDrawUtil returns the cluster's power draw this slot, given per-node
// CPU utilization in [0,1] indexed by node id, so per-slot callers can reuse
// one buffer. A short slice reads as zero utilization for the missing tail.
// Powered-off nodes draw nothing.
func (c *Cluster) SlotDrawUtil(cpuUtil []float64) units.Power {
	var total units.Power
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		u := 0.0
		if n.ID < len(cpuUtil) {
			u = cpuUtil[n.ID]
		}
		total += n.Server.Draw(u)
		for _, d := range n.Disks {
			total += d.SlotDraw()
		}
	}
	return total
}

// PoweredNodeCount returns the number of powered-on nodes.
func (c *Cluster) PoweredNodeCount() int {
	count := 0
	for _, n := range c.nodes {
		if n.Powered {
			count++
		}
	}
	return count
}

// ResetSlot clears per-slot disk activity across the cluster.
func (c *Cluster) ResetSlot() {
	for _, n := range c.nodes {
		for _, d := range n.Disks {
			d.ResetSlot()
		}
	}
}

// DiskStatsTotal aggregates disk stats across the cluster.
func (c *Cluster) DiskStatsTotal() DiskStats {
	var t DiskStats
	for _, n := range c.nodes {
		for _, d := range n.Disks {
			t.SpinUps += d.Stats.SpinUps
			t.SpinDowns += d.Stats.SpinDowns
			t.TransitionEnergy += d.Stats.TransitionEnergy
			t.Reads += d.Stats.Reads
			t.ColdReads += d.Stats.ColdReads
		}
	}
	return t
}
