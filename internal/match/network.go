package match

import "fmt"

// Network is an exported integer-capacity max-flow network over the same
// successive-shortest-paths kernel the assignment solvers run on. It exists
// for callers that need raw flow — the offline oracle's time-expanded
// energy graph (internal/oracle) — rather than the assignment-shaped
// Flow/Solver front-ends.
//
// Usage: NewNetwork(n), AddEdge for every arc, then MaxFlow once. A Network
// is single-shot: after MaxFlow the edge flows are readable via EdgeFlow
// but no further edges may be added. Not safe for concurrent use.
type Network struct {
	g      flowGraph
	solved bool
}

// NewNetwork returns an empty network with n nodes (numbered 0..n-1).
func NewNetwork(n int) *Network {
	if n < 2 {
		panic(fmt.Sprintf("match: network needs at least 2 nodes, got %d", n))
	}
	nw := &Network{}
	nw.g.reset(n)
	return nw
}

// AddEdge inserts a directed edge with the given integer capacity and
// returns a handle usable with EdgeFlow. Misuse — out-of-range nodes,
// negative capacity, adding after MaxFlow — is a programming error and
// panics, mirroring the loud-failure convention of checkFeasible.
func (nw *Network) AddEdge(from, to, capacity int) int {
	if nw.solved {
		panic("match: AddEdge after MaxFlow")
	}
	if from < 0 || from >= nw.g.n || to < 0 || to >= nw.g.n {
		panic(fmt.Sprintf("match: edge %d->%d outside %d-node network", from, to, nw.g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("match: negative edge capacity %d", capacity))
	}
	return nw.g.addEdge(from, to, capacity, 0)
}

// MaxFlow pushes as much flow as possible from s to t and returns the flow
// value. All edges carry zero cost, so the min-cost machinery degenerates
// to plain augmenting paths; determinism follows from the fixed edge
// insertion order and the heap's fixed tie-breaking.
func (nw *Network) MaxFlow(s, t int) int {
	if nw.solved {
		panic("match: MaxFlow called twice")
	}
	nw.solved = true
	flow, _ := nw.g.minCostMaxFlow(s, t)
	return flow
}

// EdgeFlow returns the flow MaxFlow routed through the edge with the given
// handle (as returned by AddEdge).
func (nw *Network) EdgeFlow(handle int) int {
	if !nw.solved {
		panic("match: EdgeFlow before MaxFlow")
	}
	return nw.g.edges[handle].flow
}
