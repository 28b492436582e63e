package core

import (
	"testing"
)

// BenchmarkCoveredOnCacheHit measures the memoized set-cover lookup, the
// simulator's hottest per-slot path. Before the scratch-buffer fix this
// allocated a fresh key byte-slice (plus a string on every hit) per call;
// now the steady-state hit path reports 0 allocs/op.
func BenchmarkCoveredOnCacheHit(b *testing.B) {
	sim, err := New(tinyConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	nodes := sim.cfg.Cluster.Nodes
	// A few recurring node sets, as the power plan produces across slots.
	sets := make([][]bool, 4)
	for i := range sets {
		m := make([]bool, nodes)
		for n := 0; n <= i+nodes/2 && n < nodes; n++ {
			m[n] = true
		}
		sets[i] = m
	}
	for _, m := range sets { // warm the cache
		sim.coveredOn(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.coveredOn(sets[i%len(sets)])
	}
}
