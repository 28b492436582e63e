package storage

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
)

// ReadModel generates per-slot read traffic over the cluster's objects with
// Zipf popularity, serving each read from a spinning replica when one
// exists and waking a standby disk otherwise. Cold reads are the tax a
// spin-down policy pays for being too aggressive.
//
//gm:statemirror State RestoreState
type ReadModel struct {
	// ReadsPerSlot is the mean read count per slot (Poisson-distributed).
	ReadsPerSlot float64 //gm:ephemeral configuration, not state
	// Theta is the Zipf exponent of object popularity.
	Theta float64 //gm:ephemeral configuration, not state
	// BaseLatencyMs is the service latency of a warm read (default 8 ms,
	// a 7200 rpm seek+rotate+transfer budget).
	BaseLatencyMs float64 //gm:ephemeral configuration, not state
	// Latencies counts the latency of every served read in milliseconds
	// (cold reads include the spin-up wait).
	Latencies stats.Distribution

	zipf   *rng.Zipf //gm:ephemeral rebuilt from the restored stream; position is determined by Draws
	stream *rng.Stream
}

// NewReadModel builds a read model over the cluster's objects.
func NewReadModel(c *Cluster, readsPerSlot, theta float64, seed int64) (*ReadModel, error) {
	if readsPerSlot < 0 {
		return nil, fmt.Errorf("storage: negative read rate %v", readsPerSlot)
	}
	if c.Config().Objects == 0 {
		return &ReadModel{ReadsPerSlot: 0, Theta: theta}, nil
	}
	stream := rng.New(seed, "storage-reads")
	return &ReadModel{
		ReadsPerSlot:  readsPerSlot,
		Theta:         theta,
		BaseLatencyMs: 8,
		zipf:          rng.NewZipf(stream, c.Config().Objects, theta),
		stream:        stream,
	}, nil
}

// SlotReadResult summarizes one slot of read traffic.
type SlotReadResult struct {
	// Reads is the number of read operations issued.
	Reads int
	// ColdReads is the number that had to wake a standby disk.
	ColdReads int
	// Unserviceable is the number that found no powered replica at all
	// (an availability violation — should be zero under a correct policy).
	Unserviceable int
	// WakeEnergy is the spin-up energy charged by cold reads.
	WakeEnergy units.Energy
	// LatencyPenaltySeconds is the total extra latency imposed by waking
	// disks (spin-up seconds per cold read).
	LatencyPenaltySeconds float64
}

// Step issues one slot of reads against the cluster, mutating disk states
// (cold reads wake disks) and stats.
func (m *ReadModel) Step(c *Cluster) SlotReadResult {
	var res SlotReadResult
	if m.zipf == nil || m.ReadsPerSlot == 0 {
		return res
	}
	n := m.stream.Poisson(m.ReadsPerSlot)
	res.Reads = n
	for i := 0; i < n; i++ {
		obj := m.zipf.Next()
		reps := c.Replicas(obj)
		// Prefer a spinning replica on a powered node.
		var served *Disk
		cold := false
		for _, id := range reps {
			if !c.Node(id.Node).Powered {
				continue
			}
			d := c.DiskByID(id)
			if d.SpunUp() {
				served = d
				break
			}
		}
		if served == nil {
			// Wake the first standby replica on a powered node.
			for _, id := range reps {
				if !c.Node(id.Node).Powered {
					continue
				}
				d := c.DiskByID(id)
				res.WakeEnergy += d.SpinUp()
				res.ColdReads++
				res.LatencyPenaltySeconds += d.Profile.SpinUpSeconds
				d.Stats.ColdReads++
				served = d
				cold = true
				break
			}
		}
		if served == nil {
			res.Unserviceable++
			continue
		}
		served.Stats.Reads++
		served.MarkBusy()
		lat := m.BaseLatencyMs
		if cold {
			lat += served.Profile.SpinUpSeconds * 1000
		}
		m.Latencies.Add(lat)
	}
	return res
}
