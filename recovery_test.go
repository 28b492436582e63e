package greenmatch

// Crash-recovery property suite: killing a live scheduler at any slot
// boundary and restoring it from its snapshot must be invisible. For every
// shipped scenario file at golden scale, and for a battery of seeded chaos
// fault schedules (including kills landing inside degraded-mode episodes),
// the restored run's Result must equal the uninterrupted run's, and the
// concatenation of the pre-kill audit trace with the restored run's trace
// must be byte-identical to the uninterrupted trace — compared by sha256
// over the full JSONL, the same digest the gmserve crash-recovery smoke
// gate checks over a real SIGKILL.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// liveFull runs a live scheduler to completion, uninterrupted, returning
// the result and the full audit-trace bytes.
func liveFull(t *testing.T, cfg core.Config) (*core.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Observer = audit.NewJSONL(&buf)
	l, err := core.NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// liveKilled simulates a crash at the boundary before slot cut: it runs a
// live scheduler up to the cut, snapshots it through a JSON round trip (the
// on-disk checkpoint form), abandons the original mid-flight, restores a
// fresh scheduler from the snapshot and finalizes that one. Returned trace
// bytes are the pre-kill prefix plus the restored run's output.
func liveKilled(t *testing.T, cfg core.Config, cut int) (*core.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	pre := cfg
	pre.Observer = audit.NewJSONL(&buf)
	l, err := core.NewLive(pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StepTo(cut - 1); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The original Live is abandoned here — the crash.
	var decoded core.LiveSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	post := cfg
	var postBuf bytes.Buffer
	post.Observer = audit.NewJSONL(&postBuf)
	r, err := core.RestoreLive(post, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res, append(buf.Bytes(), postBuf.Bytes()...)
}

// assertRecoverable checks the kill-and-recover property at each cut.
func assertRecoverable(t *testing.T, cfg core.Config, cuts []int) {
	t.Helper()
	want, wantTrace := liveFull(t, cfg)
	for _, cut := range cuts {
		if cut < 1 {
			cut = 1
		}
		got, gotTrace := liveKilled(t, cfg, cut)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cut=%d: restored result differs:\nuninterrupted %+v\nrestored      %+v",
				cut, want, got)
		}
		if !bytes.Equal(wantTrace, gotTrace) {
			t.Errorf("cut=%d: restored trace differs (%d vs %d bytes)",
				cut, len(wantTrace), len(gotTrace))
		}
	}
}

// TestRecoveryScenarios proves kill-and-recover determinism on every
// shipped scenario file at golden scale, cutting at a quarter, half and
// three quarters of the uninterrupted run. In -short mode it covers the
// reference and failure-storm scenarios only.
func TestRecoveryScenarios(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found")
	}
	shortSet := map[string]bool{"reference": true, "failure-storm": true}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !shortSet[name] {
				t.Skip("scenario subset in -short mode")
			}
			t.Parallel()
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Read(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.Scaled(goldenScale).Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, _ := liveFull(t, cfg)
			assertRecoverable(t, cfg, []int{res.Slots / 4, res.Slots / 2, 3 * res.Slots / 4})
		})
	}
}

// recoveryPolicies cycles the policy arena through the chaos seeds, so
// recovery is proven for every scheduling genre including the quiescent
// planners the slot-skipping fast path special-cases.
var recoveryPolicies = []sched.Policy{
	sched.Baseline{},
	sched.SpinDown{},
	sched.DeferFraction{Fraction: 0.6},
	sched.GreenMatch{},
	sched.GreenMatch{Fraction: 0.5},
	sched.EDF{},
	sched.KChoices{},
	sched.Cucumber{},
}

// degradedCut picks the kill slot for a chaos run: just past the first
// degraded-mode slot of the uninterrupted trace, so the kill lands inside
// the degraded episode the fault schedule opened — the adversarial case
// for recovery, since the snapshot must carry the episode tracker, the
// repair queue and the fault engine's stream positions. Falls back to the
// middle of the run when no slot degraded.
func degradedCut(t *testing.T, trace []byte, slots int) int {
	t.Helper()
	cut := slots / 2
	inEpisode := false
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var s struct {
			Kind     string `json:"kind"`
			Slot     int    `json:"slot"`
			Degraded bool   `json:"degraded_mode"`
		}
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("unparsable trace line: %v", err)
		}
		if s.Kind == "totals" {
			continue
		}
		if s.Degraded {
			cut = s.Slot + 1
			inEpisode = true
			break
		}
	}
	if cut >= slots {
		cut = slots - 1
	}
	if cut < 1 {
		cut = 1
	}
	if inEpisode {
		t.Logf("killing inside degraded episode at slot %d of %d", cut, slots)
	}
	return cut
}

// TestRecoveryChaosSeeds proves kill-and-recover determinism under 32
// seeded random fault schedules (8 in -short mode), with the kill placed
// inside a degraded-mode episode whenever the schedule produced one.
func TestRecoveryChaosSeeds(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		seed := int64(2000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(t, seed)
			cfg.Policy = recoveryPolicies[int(seed)%len(recoveryPolicies)]
			want, wantTrace := liveFull(t, cfg)
			cut := degradedCut(t, wantTrace, want.Slots)
			got, gotTrace := liveKilled(t, cfg, cut)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("cut=%d: restored result differs:\nuninterrupted %+v\nrestored      %+v",
					cut, want, got)
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Fatalf("cut=%d: restored trace differs (%d vs %d bytes)",
					cut, len(wantTrace), len(gotTrace))
			}
		})
	}
}
