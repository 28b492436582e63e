package match

import (
	"fmt"
	"math"
)

// flowEdge is one directed edge of the residual graph.
type flowEdge struct {
	to   int
	cap  int
	cost float64
	flow int
}

// flowGraph is a min-cost max-flow network solved by successive shortest
// paths with Johnson potentials (Dijkstra on reduced costs). All edge costs
// must be non-negative, which the assignment reduction guarantees.
//
// The graph is reusable: reset re-dimensions it in place, and the Dijkstra
// scratch (potential/dist/prevEdge/heap) persists across solves so repeat
// callers — Solver and the simulator's per-slot planning —
// stay allocation-free once warm.
type flowGraph struct {
	n     int
	edges []flowEdge
	adj   [][]int // node -> indices into edges

	// Dijkstra scratch, sized lazily by minCostMaxFlow.
	potential []float64
	dist      []float64
	prevEdge  []int
	heap      pq
}

func newFlowGraph(n int) *flowGraph {
	g := &flowGraph{}
	g.reset(n)
	return g
}

// reset clears the graph to n nodes and zero edges, retaining all backing
// arrays (including per-node adjacency lists) for reuse.
func (g *flowGraph) reset(n int) {
	g.n = n
	g.edges = g.edges[:0]
	if cap(g.adj) < n {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, n-cap(g.adj))...)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// addEdge inserts a forward edge and its residual twin, returning the
// forward edge index.
func (g *flowGraph) addEdge(from, to, capacity int, cost float64) int {
	idx := len(g.edges)
	g.edges = append(g.edges, flowEdge{to: to, cap: capacity, cost: cost})
	g.adj[from] = append(g.adj[from], idx)
	g.edges = append(g.edges, flowEdge{to: from, cap: 0, cost: -cost})
	g.adj[to] = append(g.adj[to], idx+1)
	return idx
}

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist. The sift logic mirrors container/heap's
// up/down exactly — same comparisons, same swap order — so extraction order
// (and with it Dijkstra's tie-breaking, the augmenting paths, and the
// byte-determinism contract) is unchanged from the container/heap version;
// inlining just removes the per-Push interface boxing allocation.
type pq []pqItem

func (p *pq) push(it pqItem) {
	*p = append(*p, it)
	p.up(len(*p) - 1)
}

func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	it := h[n]
	*p = h[:n]
	return it
}

func (p pq) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(p[j].dist < p[i].dist) {
			break
		}
		p[i], p[j] = p[j], p[i]
		j = i
	}
}

func (p pq) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && p[j2].dist < p[j1].dist {
			j = j2 // right child
		}
		if !(p[j].dist < p[i].dist) {
			break
		}
		p[i], p[j] = p[j], p[i]
		i = j
	}
}

// minCostMaxFlow pushes as much flow as possible from s to t, minimizing
// total cost among maximum flows. It returns (flow, cost).
func (g *flowGraph) minCostMaxFlow(s, t int) (int, float64) {
	if cap(g.potential) < g.n {
		g.potential = make([]float64, g.n)
		g.dist = make([]float64, g.n)
		g.prevEdge = make([]int, g.n)
	}
	potential := g.potential[:g.n]
	dist := g.dist[:g.n]
	prevEdge := g.prevEdge[:g.n]
	for i := range potential {
		potential[i] = 0
	}
	totalFlow := 0
	totalCost := 0.0
	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		g.heap = append(g.heap[:0], pqItem{node: s})
		h := &g.heap
		for len(*h) > 0 {
			it := h.pop()
			if it.dist > dist[it.node] {
				continue
			}
			for _, ei := range g.adj[it.node] {
				e := g.edges[ei]
				if e.cap-e.flow <= 0 {
					continue
				}
				nd := dist[it.node] + e.cost + potential[it.node] - potential[e.to]
				if nd < dist[e.to]-1e-12 {
					dist[e.to] = nd
					prevEdge[e.to] = ei
					h.push(pqItem{node: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break
		}
		for i := range potential {
			if !math.IsInf(dist[i], 1) {
				potential[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		aug := math.MaxInt
		for v := t; v != s; {
			ei := prevEdge[v]
			e := g.edges[ei]
			if r := e.cap - e.flow; r < aug {
				aug = r
			}
			v = g.edges[ei^1].to
		}
		for v := t; v != s; {
			ei := prevEdge[v]
			g.edges[ei].flow += aug
			g.edges[ei^1].flow -= aug
			totalCost += float64(aug) * g.edges[ei].cost
			v = g.edges[ei^1].to
		}
		totalFlow += aug
	}
	return totalFlow, totalCost
}

// Flow solves the instance optimally with min-cost max-flow. Among
// assignments that place the maximum number of jobs it maximizes total
// weight. Runtime is O(F * E log V) with F the assigned-job count.
func Flow(in Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n, m := in.Jobs(), in.Slots()
	// Node layout: 0 = source, 1..n = jobs, n+1..n+m = slots, n+m+1 = sink.
	src, sink := 0, n+m+1
	g := newFlowGraph(n + m + 2)
	// Edge cost W - w keeps all costs positive and makes min-cost flow
	// equivalent to max-weight assignment among max flows.
	bigW := in.maxWeight() + 1
	jobSlotEdge := make(map[[2]int]int, n)
	for j := 0; j < n; j++ {
		g.addEdge(src, 1+j, 1, 0)
		for s, w := range in.Weights[j] {
			if IsForbidden(w) || in.Capacity[s] == 0 {
				continue
			}
			jobSlotEdge[[2]int{j, s}] = g.addEdge(1+j, 1+n+s, 1, bigW-w)
		}
	}
	for s := 0; s < m; s++ {
		if in.Capacity[s] > 0 {
			g.addEdge(1+n+s, sink, in.Capacity[s], 0)
		}
	}
	g.minCostMaxFlow(src, sink)

	assign := make([]int, n)
	for j := range assign {
		assign[j] = -1
	}
	for key, ei := range jobSlotEdge {
		if g.edges[ei].flow > 0 {
			if assign[key[0]] != -1 {
				return Result{}, fmt.Errorf("match: flow assigned job %d twice", key[0])
			}
			assign[key[0]] = key[1]
		}
	}
	in.checkFeasible(assign)
	return in.score(assign), nil
}
