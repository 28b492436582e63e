package match

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/rng"
)

// solverGoldenDigest pins the exact-flow contract: the sha256 of every
// Count cell, Assigned and Weight bit pattern that a fresh Solver and one
// reused Solver produce over goldenCorpus. It is not a statement of
// optimality (the cross-checks do that) but of which optimum: the grouped
// optimum is tie-degenerate, and the simulator's byte-determinism rides on
// the specific flow SSP finds from a zero start. Any change that makes the
// solve pick another optimum, or sum Weight in another order, moves it.
const solverGoldenDigest = "556a9d74214d73562bba1c2f07ef27cf9f649fe151482cb7868e69d5fd43706e"

// goldenInstance is one entry of the golden corpus.
type goldenInstance struct {
	weights  [][]float64
	supply   []int
	capacity []int
}

// goldenCorpus draws a seeded sequence of grouped instances shaped to hit
// what the exact-flow contract must pin: weights from a coarse grid, so
// many cells tie; forbidden cells; zero supplies and zero capacities,
// including a dark slot 0; and, back to back, instances repeated verbatim
// and instances with the same arc topology but new values, which a reused
// Solver must solve exactly as a fresh one does.
func goldenCorpus() []goldenInstance {
	s := rng.New(2016, "solver-golden")
	var corpus []goldenInstance
	for len(corpus) < 400 {
		g, m := 1+s.Intn(12), 1+s.Intn(24)
		in := goldenInstance{weights: make([][]float64, g), supply: make([]int, g), capacity: make([]int, m)}
		for gi := range in.weights {
			row := make([]float64, m)
			latest := s.Intn(m + 1) // deadline-shaped: a non-forbidden prefix...
			for k := range row {
				switch {
				case k > latest || s.Bernoulli(0.1): // ...plus scattered holes
					row[k] = Forbidden
				default:
					row[k] = float64(s.Intn(5)) / 4
				}
			}
			in.weights[gi] = row
			if !s.Bernoulli(0.1) {
				in.supply[gi] = 1 + s.Intn(6)
			}
		}
		for k := range in.capacity {
			if !s.Bernoulli(0.2) {
				in.capacity[k] = 1 + s.Intn(5)
			}
		}
		if s.Bernoulli(0.3) {
			in.capacity[0] = 0
		}
		corpus = append(corpus, in)
		switch {
		case s.Bernoulli(0.15):
			corpus = append(corpus, in)
		case s.Bernoulli(0.3):
			corpus = append(corpus, reweighed(s, in))
		}
	}
	return corpus
}

// reweighed returns in with every allowed weight redrawn and every
// non-zero supply and capacity resized, keeping the arc topology.
func reweighed(s *rng.Stream, in goldenInstance) goldenInstance {
	out := goldenInstance{weights: make([][]float64, len(in.weights)), supply: make([]int, len(in.supply)), capacity: make([]int, len(in.capacity))}
	for gi, row := range in.weights {
		out.weights[gi] = make([]float64, len(row))
		for k, w := range row {
			if IsForbidden(w) {
				out.weights[gi][k] = w
			} else {
				out.weights[gi][k] = float64(s.Intn(5)) / 4
			}
		}
		if in.supply[gi] > 0 {
			out.supply[gi] = 1 + s.Intn(6)
		}
	}
	for k, c := range in.capacity {
		if c > 0 {
			out.capacity[k] = 1 + s.Intn(5)
		}
	}
	return out
}

func hashGrouped(h hash.Hash, res GroupedResult) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(res.Assigned))
	put(math.Float64bits(res.Weight))
	for _, row := range res.Count {
		for _, c := range row {
			put(uint64(c))
		}
	}
}

func TestSolverGolden(t *testing.T) {
	h := sha256.New()
	var sv Solver
	for i, in := range goldenCorpus() {
		var fresh Solver
		want, err := fresh.SolveGrouped(in.weights, in.supply, in.capacity)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.SolveGrouped(in.weights, in.supply, in.capacity)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, fmt.Sprintf("instance %d", i), got, want)
		hashGrouped(h, want)
		hashGrouped(h, got)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != solverGoldenDigest {
		t.Fatalf("solver golden digest %s, want %s", sum, solverGoldenDigest)
	}
}
