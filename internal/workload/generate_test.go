package workload

import (
	"cmp"
	"slices"
	"testing"
)

// referenceSubmitOrder is the comparator sort Generate ran before its
// counting sort: (Submit, ID) ascending. It is kept only as the oracle of
// the differential test below.
func referenceSubmitOrder(jobs Trace) Trace {
	out := slices.Clone(jobs)
	slices.SortFunc(out, func(a, b Job) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// TestGenerateMatchesSortReference checks Generate's counting sort against
// the comparator sort over many seeds, population scales and horizons,
// including horizons shorter than a day, where evening backups clamp to
// the last slot and share it with other jobs.
func TestGenerateMatchesSortReference(t *testing.T) {
	clamped := 0
	for _, slots := range []int{1, 2, 5, 20, 21, 23, 24, 25, 47, 168, 500} {
		for _, f := range []float64{0.01, 0.1, 0.5, 1, 2} {
			for seed := int64(1); seed <= 6; seed++ {
				cfg := Scaled(f)
				cfg.Slots, cfg.Seed = slots, seed
				got := mustGenerate(t, cfg)
				// IDs are the generation order: sorting by ID recovers the
				// trace as it stood before Generate's sort.
				generated := slices.Clone(got)
				slices.SortFunc(generated, func(a, b Job) int { return cmp.Compare(a.ID, b.ID) })
				for i, j := range generated {
					if j.ID != i {
						t.Fatalf("slots=%d f=%v seed=%d: IDs are not 0..%d", slots, f, seed, len(got)-1)
					}
					if j.Class == Backup && j.Submit == slots-1 && slots%24 != 21 {
						clamped++
					}
				}
				want := referenceSubmitOrder(generated)
				if !slices.Equal(got, want) {
					t.Fatalf("slots=%d f=%v seed=%d: trace order differs from the (Submit, ID) sort", slots, f, seed)
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no horizon clamped a backup to its last slot")
	}
}
