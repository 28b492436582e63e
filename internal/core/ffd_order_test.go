package core

import (
	"fmt"
	"slices"
	"testing"
)

// checkCarriedOrder runs cfg one slot at a time and, after every full
// slot, compares the carried FFD order, filtered to running jobs as
// placeOrder reads it, with a fresh sort of s.running. It returns the
// number of full slots checked.
//
// place only loses speed to a stale order, since the placer sorts its
// items again; this check is what makes a stale order fail a test.
func checkCarriedOrder(cfg Config) (int, error) {
	s, err := New(cfg)
	if err != nil {
		return 0, err
	}
	full := 0
	for slot := 0; ; slot++ {
		fast := s.state.FastSlots
		s.advance(slot)
		if s.state.Next == slot {
			return full, nil // drained or out of overrun budget
		}
		if s.state.FastSlots != fast {
			continue
		}
		full++
		var carried []*jobState
		for _, st := range s.ffdOrder {
			if st.running {
				carried = append(carried, st)
			}
		}
		want := slices.Clone(s.running)
		slices.SortFunc(want, compareFFD)
		if !slices.Equal(carried, want) {
			return full, fmt.Errorf("slot %d: carried order has %d running jobs %v, a fresh sort %d %v",
				slot, len(carried), jobIDs(carried), len(want), jobIDs(want))
		}
	}
}

func jobIDs(jobs []*jobState) []int {
	ids := make([]int, len(jobs))
	for i, st := range jobs {
		ids[i] = st.job.ID
	}
	return ids
}

// TestCarriedOrderUnderChaos checks the carried order over the 16 chaos
// seeds of the -short pass: crashes evict running jobs, repairs
// synthesize new ones, and the seeds cycle through every policy genre.
func TestCarriedOrderUnderChaos(t *testing.T) {
	for i := 0; i < 16; i++ {
		seed := int64(1000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			full, err := checkCarriedOrder(chaosFaultConfig(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if full == 0 {
				t.Fatal("no full slot ran")
			}
		})
	}
}
