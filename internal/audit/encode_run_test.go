package audit_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/scenarios"
)

// marshalDiff is an observer that writes every trace through a JSONL sink
// and compares the line with json.Marshal's encoding of the same trace on
// the spot (fault kinds live in a buffer the simulator reuses, so traces
// are checked as they arrive, not collected). It also counts the slots that
// set each fault-only omitempty field, so a run can prove it reached them.
type marshalDiff struct {
	t    *testing.T
	buf  bytes.Buffer
	sink *audit.JSONL

	slots, faults, supply, fade, degraded int
}

func newMarshalDiff(t *testing.T) *marshalDiff {
	d := &marshalDiff{t: t}
	d.sink = audit.NewJSONL(&d.buf)
	return d
}

func (d *marshalDiff) check(what string, want []byte, err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	want = append(want, '\n')
	if !bytes.Equal(d.buf.Bytes(), want) {
		d.t.Fatalf("%s: sink wrote\n%s\njson.Marshal wrote\n%s", what, d.buf.Bytes(), want)
	}
	d.buf.Reset()
}

func (d *marshalDiff) ObserveSlot(s audit.SlotTrace) {
	d.t.Helper()
	d.sink.ObserveSlot(s)
	want, err := json.Marshal(s)
	d.check("slot", want, err)
	d.slots++
	if len(s.FaultsActive) > 0 {
		d.faults++
	}
	if s.SupplyFaultWh > 0 {
		d.supply++
	}
	if s.BatteryFadeFactor > 0 {
		d.fade++
	}
	if s.DegradedMode {
		d.degraded++
	}
}

func (d *marshalDiff) EndRun(tot audit.RunTotals) error {
	d.t.Helper()
	if err := d.sink.EndRun(tot); err != nil {
		return err
	}
	want, err := json.Marshal(struct {
		Kind string `json:"kind"`
		audit.RunTotals
	}{"totals", tot})
	d.check("totals", want, err)
	return nil
}

// TestJSONLMatchesMarshalOnScenarios runs every shipped scenario with the
// differential observer attached (labeled, so the run field is set too).
func TestJSONLMatchesMarshalOnScenarios(t *testing.T) {
	for _, name := range scenarios.Names() {
		t.Run(name, func(t *testing.T) {
			sc, err := scenarios.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.Scaled(0.25).Compile()
			if err != nil {
				t.Fatal(err)
			}
			d := newMarshalDiff(t)
			cfg.Observer = audit.Labeled(name, d)
			if _, err := core.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if d.slots == 0 {
				t.Fatal("no slot traces observed")
			}
		})
	}
}

// TestJSONLMatchesMarshalUnderChaos runs generated chaos fault schedules,
// which set the fault-only fields (faults_active, supply_fault_wh,
// battery_fade_factor, degraded_mode) that clean scenarios leave empty.
func TestJSONLMatchesMarshalUnderChaos(t *testing.T) {
	var faults, supply, fade, degraded int
	for _, seed := range []int64{4242, 4243, 4244, 4245} {
		cfg := core.DefaultConfig()
		cl := storage.DefaultConfig()
		cl.Nodes = 8
		cl.Objects = 400
		cfg.Cluster = cl
		gen := workload.Scaled(0.08)
		gen.Seed = seed
		cfg.Trace = workload.MustGenerate(gen)
		cfg.Green = core.DefaultGreen(40)
		cfg.BatteryCapacityWh = 10 * units.KilowattHour
		cfg.ReadsPerSlot = 50
		cfg.Seed = seed
		cfg.Faults = fault.Generate(seed, fault.GenSpec{Slots: 200, Nodes: cl.Nodes, AllowMTBF: true})
		d := newMarshalDiff(t)
		cfg.Observer = d
		if _, err := core.Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults += d.faults
		supply += d.supply
		fade += d.fade
		degraded += d.degraded
	}
	if faults == 0 || supply == 0 || fade == 0 || degraded == 0 {
		t.Fatalf("chaos runs never set every fault field: faults_active %d, supply_fault_wh %d, battery_fade_factor %d, degraded_mode %d slots",
			faults, supply, fade, degraded)
	}
}
