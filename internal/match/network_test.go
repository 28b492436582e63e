package match

import "testing"

// addEdge adds an edge and returns its index in nw.g.edges, where MaxFlow
// leaves the flow it routed through the edge.
func addEdge(nw *Network, from, to, capacity int) int {
	h := len(nw.g.edges)
	nw.AddEdge(from, to, capacity)
	return h
}

func TestNetworkMaxFlowDiamond(t *testing.T) {
	// s=0, a=1, b=2, t=3: the classic diamond with a cross edge.
	nw := NewNetwork(4)
	sa := addEdge(nw, 0, 1, 3)
	nw.AddEdge(0, 2, 2)
	at := addEdge(nw, 1, 3, 2)
	nw.AddEdge(2, 3, 3)
	nw.AddEdge(1, 2, 1)
	if got := nw.MaxFlow(0, 3); got != 5 {
		t.Fatalf("max flow = %d, want 5", got)
	}
	if f := nw.g.edges[sa].flow; f != 3 {
		t.Errorf("flow on s->a = %d, want 3 (saturated)", f)
	}
	if f := nw.g.edges[at].flow; f != 2 {
		t.Errorf("flow on a->t = %d, want 2 (saturated)", f)
	}
}

func TestNetworkMaxFlowDisconnected(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddEdge(0, 1, 7)
	if got := nw.MaxFlow(0, 2); got != 0 {
		t.Fatalf("max flow to unreachable sink = %d, want 0", got)
	}
}

func TestNetworkChainBottleneck(t *testing.T) {
	// A path s -> 1 -> 2 -> t is limited by its tightest arc.
	nw := NewNetwork(4)
	nw.AddEdge(0, 1, 10)
	mid := addEdge(nw, 1, 2, 4)
	nw.AddEdge(2, 3, 10)
	if got := nw.MaxFlow(0, 3); got != 4 {
		t.Fatalf("max flow = %d, want 4", got)
	}
	if f := nw.g.edges[mid].flow; f != 4 {
		t.Errorf("bottleneck flow = %d, want 4", f)
	}
}

func TestNetworkMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("tiny network", func() { NewNetwork(1) })
	mustPanic("negative capacity", func() { NewNetwork(2).AddEdge(0, 1, -1) })
	mustPanic("node out of range", func() { NewNetwork(2).AddEdge(0, 2, 1) })
	nw := NewNetwork(2)
	nw.AddEdge(0, 1, 1)
	nw.MaxFlow(0, 1)
	mustPanic("add after solve", func() { nw.AddEdge(0, 1, 1) })
	mustPanic("double solve", func() { nw.MaxFlow(0, 1) })
}
