package storage

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
)

// This file implements checkpoint/restore for the storage substrate. Only
// mutable runtime state is captured: topology, power profiles and the
// object placement map are pure functions of Config, so a snapshot is
// restored onto a freshly built cluster of the same Config and the
// placement falls out identical. Per-slot scratch (the disks' busy
// markers) is always clear at slot boundaries and is deliberately absent.

// DiskSnap is one disk's mutable state.
type DiskSnap struct {
	// State is the power state (power.DiskState numeric value).
	State power.DiskState `json:"state"`
	// Stats is the cumulative activity accounting.
	SpinUps            int     `json:"spin_ups,omitempty"`
	SpinDowns          int     `json:"spin_downs,omitempty"`
	TransitionEnergyWh float64 `json:"transition_energy_wh,omitempty"`
	Reads              int     `json:"reads,omitempty"`
	ColdReads          int     `json:"cold_reads,omitempty"`
}

// NodeSnap is one node's mutable state, disks in slot order.
type NodeSnap struct {
	Powered   bool       `json:"powered"`
	Failed    bool       `json:"failed,omitempty"`
	Boots     int        `json:"boots,omitempty"`
	Shutdowns int        `json:"shutdowns,omitempty"`
	Failures  int        `json:"failures,omitempty"`
	Disks     []DiskSnap `json:"disks"`
}

// ClusterState is the cluster's full mutable state, nodes in id order.
type ClusterState struct {
	Nodes []NodeSnap `json:"nodes"`
}

// State captures the cluster's mutable state for checkpointing.
func (c *Cluster) State() ClusterState {
	st := ClusterState{Nodes: make([]NodeSnap, len(c.nodes))}
	for i, n := range c.nodes {
		ns := NodeSnap{
			Powered:   n.Powered,
			Failed:    n.Failed,
			Boots:     n.Boots,
			Shutdowns: n.Shutdowns,
			Failures:  n.Failures,
			Disks:     make([]DiskSnap, len(n.Disks)),
		}
		for j, d := range n.Disks {
			ns.Disks[j] = DiskSnap{
				State:              d.State,
				SpinUps:            d.Stats.SpinUps,
				SpinDowns:          d.Stats.SpinDowns,
				TransitionEnergyWh: d.Stats.TransitionEnergy.Wh(),
				Reads:              d.Stats.Reads,
				ColdReads:          d.Stats.ColdReads,
			}
		}
		st.Nodes[i] = ns
	}
	return st
}

// RestoreState overwrites the cluster's mutable state with a snapshot taken
// by State from a cluster of the same Config.
func (c *Cluster) RestoreState(st ClusterState) error {
	if len(st.Nodes) != len(c.nodes) {
		return fmt.Errorf("storage: snapshot has %d nodes, cluster has %d", len(st.Nodes), len(c.nodes))
	}
	for i, ns := range st.Nodes {
		n := c.nodes[i]
		if len(ns.Disks) != len(n.Disks) {
			return fmt.Errorf("storage: snapshot node %d has %d disks, cluster has %d", i, len(ns.Disks), len(n.Disks))
		}
		n.Powered = ns.Powered
		n.Failed = ns.Failed
		n.Boots = ns.Boots
		n.Shutdowns = ns.Shutdowns
		n.Failures = ns.Failures
		for j, ds := range ns.Disks {
			d := n.Disks[j]
			d.State = ds.State
			d.Stats = DiskStats{
				SpinUps:          ds.SpinUps,
				SpinDowns:        ds.SpinDowns,
				TransitionEnergy: units.Energy(ds.TransitionEnergyWh),
				Reads:            ds.Reads,
				ColdReads:        ds.ColdReads,
			}
			d.busy = false
		}
	}
	return nil
}

// ReadModelState is the read model's mutable state: the RNG stream position
// plus the latency distribution in counted form.
type ReadModelState struct {
	// Draws is the stream position (rng.Stream.Draws).
	Draws uint64 `json:"draws,omitempty"`
	// LatencyValues, LatencyCounts and LatencySum serialize the latency
	// distribution (stats.Distribution.State).
	LatencyValues []float64 `json:"latency_values,omitempty"`
	LatencyCounts []int     `json:"latency_counts,omitempty"`
	LatencySum    float64   `json:"latency_sum,omitempty"`
	// Latencies is the layout of checkpoints written before the counted
	// form: one sample per read. State never sets it; RestoreState folds it
	// into counts.
	Latencies []float64 `json:"latencies,omitempty"`
}

// State captures the read model's mutable state for checkpointing.
func (m *ReadModel) State() ReadModelState {
	var st ReadModelState
	if m.stream != nil {
		st.Draws = m.stream.Draws()
	}
	st.LatencyValues, st.LatencyCounts, st.LatencySum = m.Latencies.State()
	return st
}

// RestoreState rewinds the read model to a snapshot taken by State from a
// model built with the same (cluster, rate, theta, seed).
func (m *ReadModel) RestoreState(seed int64, st ReadModelState) {
	if m.stream != nil {
		m.stream = rng.Restore(seed, "storage-reads", st.Draws)
		m.zipf = rng.NewZipf(m.stream, m.zipf.N(), m.Theta)
	}
	if st.Latencies != nil {
		var folded stats.Distribution
		for _, v := range st.Latencies {
			folded.Add(v)
		}
		st.LatencyValues, st.LatencyCounts, _ = folded.State()
	}
	m.Latencies.RestoreState(st.LatencyValues, st.LatencyCounts, st.LatencySum)
}
