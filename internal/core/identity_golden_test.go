package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestSlotIdentityGolden pins the per-slot job-identity sets — which jobs
// are running (and where), waiting, queued mandatory, and which nodes are
// under repair — for a crash-storm scenario against a committed golden.
//
// The scenario golden suite pins end-of-run aggregates; this test pins the
// slot-by-slot *identity* trajectory, which is exactly what the in-place
// queue-filter rewrites in step/place could corrupt without moving any
// aggregate: the aliasing bug class where a retained *jobState in a
// truncated backing array is overwritten by a later append. The golden was
// generated before the zero-alloc refactor of the slot loop and must stay
// byte-identical across it.
//
// Regenerate (only for an intentional behaviour change) with:
//
//	UPDATE_GOLDEN=1 go test -run TestSlotIdentityGolden ./internal/core
func TestSlotIdentityGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy sched.Policy
	}{
		// GreenMatch exercises deferral, suspension and consolidation;
		// DeferFraction exercises the fractional suspend path. Both run
		// under a crash storm plus a background MTBF crash process, so
		// evictions, repair-job synthesis and degraded-mode queue handling
		// all appear in the trajectory.
		{"greenmatch", sched.GreenMatch{}},
		{"defer60", sched.DeferFraction{Fraction: 0.6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(t)
			gen := workload.Scaled(0.08)
			gen.Seed = 11
			cfg.Trace = genTrace(t, gen)
			cfg.BatteryCapacityWh = 10 * units.KilowattHour
			cfg.Policy = tc.policy
			cfg.Faults = fault.Config{
				CrashMTBFHours:   400,
				CrashRepairSlots: 12,
				Events: []fault.Event{
					{Kind: fault.KindCrashStorm, At: 30, Duration: 10, Count: 3},
					{Kind: fault.KindCrashStorm, At: 80, Duration: 16, Count: 2},
					{Kind: fault.KindPVDropout, At: 60, Duration: 12},
				},
			}
			got := slotIdentityTrace(t, cfg)

			path := filepath.Join("testdata", "slot-identity-"+tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1): %v", path, err)
			}
			if got != string(want) {
				t.Fatalf("per-slot job identity trajectory diverged from golden %s\n%s",
					path, firstDiffLine(string(want), got))
			}
		})
	}
}

// slotIdentityTrace drives the slot loop one slot at a time and renders
// one line per executed slot with the sorted job-identity sets. Slot
// skipping is off, so every slot runs the full step pipeline the golden
// pins.
func slotIdentityTrace(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.DisableSlotSkipping = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for slot := 0; ; slot++ {
		s.advance(slot)
		if s.next == slot {
			break // drained or out of overrun budget
		}
		writeSlotIdentity(&b, slot, s)
	}
	return b.String()
}

func writeSlotIdentity(b *strings.Builder, slot int, s *Simulator) {
	type placed struct{ id, node int }
	run := make([]placed, 0, len(s.running))
	for _, st := range s.running {
		run = append(run, placed{st.job.ID, st.node})
	}
	sort.Slice(run, func(i, j int) bool { return run[i].id < run[j].id })
	wait := make([]int, 0, len(s.waiting))
	for _, st := range s.waiting {
		wait = append(wait, st.job.ID)
	}
	sort.Ints(wait)
	mand := make([]int, 0, len(s.mandQueue))
	for _, st := range s.mandQueue {
		mand = append(mand, st.job.ID)
	}
	sort.Ints(mand)
	repair := make([]int, 0, len(s.repairAt))
	for n := range s.repairAt {
		repair = append(repair, n)
	}
	sort.Ints(repair)

	fmt.Fprintf(b, "slot %d running=[", slot)
	for i, p := range run {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d@%d", p.id, p.node)
	}
	b.WriteString("] waiting=")
	writeInts(b, wait)
	b.WriteString(" mand=")
	writeInts(b, mand)
	b.WriteString(" repair=[")
	for i, n := range repair {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d@%d", n, s.repairAt[n])
	}
	b.WriteString("]\n")
}

func writeInts(b *strings.Builder, xs []int) {
	b.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d", x)
	}
	b.WriteByte(']')
}

// firstDiffLine locates the first line where want and got diverge, for a
// readable failure message.
func firstDiffLine(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("first divergence at line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}
