package audit

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// totalsLine is the shape json.Marshal sees for the JSONL totals line.
type totalsLine struct {
	Kind string `json:"kind"`
	RunTotals
}

// checkSlotEncoding holds appendSlotTrace to json.Marshal, the oracle: the
// same bytes, or an error with the same message.
func checkSlotEncoding(t *testing.T, s SlotTrace) {
	t.Helper()
	want, wantErr := json.Marshal(s)
	got, gotErr := appendSlotTrace([]byte("prefix"), &s)
	checkParity(t, "slot", want, wantErr, got, gotErr)
}

func checkTotalsEncoding(t *testing.T, tot RunTotals) {
	t.Helper()
	want, wantErr := json.Marshal(totalsLine{Kind: "totals", RunTotals: tot})
	got, gotErr := appendTotalsLine([]byte("prefix"), &tot)
	checkParity(t, "totals", want, wantErr, got, gotErr)
}

func checkParity(t *testing.T, what string, want []byte, wantErr error, got []byte, gotErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: encoder error %v, json.Marshal error %v", what, gotErr, wantErr)
		}
		return
	}
	got, ok := bytes.CutPrefix(got, []byte("prefix"))
	if !ok {
		t.Fatalf("%s: encoder clobbered the buffer it appends to", what)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder wrote\n%s\njson.Marshal wrote\n%s", what, got, want)
	}
}

// fillFields sets every field of the struct v points to a non-zero value
// derived from seed, so a field the encoder forgot shows up as a diff.
func fillFields(v any, seed float64) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(seed * float64(i+1) * math.Pow(10, float64(i%9-4)))
		case reflect.Int:
			f.SetInt(int64(i+1) * int64(math.Copysign(7919, seed)))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("field" + strings.Repeat("x", i%3))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"crash", "dropout"}))
		case reflect.Struct:
			fillFields(f.Addr().Interface(), seed)
		default:
			panic("fillFields: unhandled kind " + f.Kind().String())
		}
	}
}

// TestAppendEncoderEveryField covers every field of both line types, set
// and zero, so a field added to SlotTrace or RunTotals without a matching
// encoder line fails here.
func TestAppendEncoderEveryField(t *testing.T) {
	for _, seed := range []float64{1, -3.5, 1e-9, 7e19} {
		var s SlotTrace
		fillFields(&s, seed)
		checkSlotEncoding(t, s)
		var tot RunTotals
		fillFields(&tot, seed)
		checkTotalsEncoding(t, tot)
	}
	checkSlotEncoding(t, SlotTrace{})
	checkSlotEncoding(t, SlotTrace{FaultsActive: []string{}})
	checkTotalsEncoding(t, RunTotals{})
}

// TestAppendEncoderFloatsAndStrings walks the float format's boundaries
// (the 'f'/'e' switch at 1e-6 and 1e21, signed zeros, subnormals, the
// integer form's 2^53 limit, ±Inf and NaN) and the strings encoding/json
// escapes.
func TestAppendEncoderFloatsAndStrings(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.1 + 0.2, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 1e20, math.Nextafter(1e21, 0),
		1e21, -1e21, 1.2345e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		8000, -1461, 1e15, 1<<52 + 1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, 123456789012345680,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, v := range floats {
		s := cleanSlot(4, 0)
		s.SlotHours, s.SupplyFaultWh, s.BatteryFadeFactor = v, v, -v
		checkSlotEncoding(t, s)
		checkTotalsEncoding(t, RunTotals{Policy: "p", BrownWh: v})
	}
	strs := []string{
		"", "greenmatch", "E8/defer-60", "a<b>&c", "a<b", "b>a", "x&y", `quote"`, `back\slash`, "tab\tnl\n",
		"\x00\x1f", "\x7f", "é", "\xff\xfe", "  ", "日本",
	}
	for _, v := range strs {
		s := cleanSlot(5, 0)
		s.Run, s.Policy, s.FaultsActive = v, v, []string{v, "crash"}
		checkSlotEncoding(t, s)
		checkTotalsEncoding(t, RunTotals{Run: v, Policy: v})
	}
}

// TestJSONLMatchesMarshalLines pins the sink end to end: each line is
// json.Marshal's bytes plus a newline, and a non-finite field writes
// nothing and surfaces json.Marshal's error from EndRun.
func TestJSONLMatchesMarshalLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var want []byte
	for i := 0; i < 3; i++ {
		s := cleanSlot(i, 0)
		s.FaultsActive = []string{"crash"}
		j.ObserveSlot(s)
		line, _ := json.Marshal(s)
		want = append(append(want, line...), '\n')
	}
	tot := RunTotals{Run: "r", Policy: "test", Slots: 3}
	if err := j.EndRun(tot); err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(totalsLine{Kind: "totals", RunTotals: tot})
	want = append(append(want, line...), '\n')
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("sink wrote\n%s\nwant\n%s", buf.Bytes(), want)
	}

	buf.Reset()
	bad := cleanSlot(0, 0)
	bad.BatterySoC = math.NaN()
	_, marshalErr := json.Marshal(bad)
	j = NewJSONL(&buf)
	j.ObserveSlot(bad)
	j.ObserveSlot(cleanSlot(1, 0)) // sticky: nothing after the error either
	err := j.EndRun(RunTotals{})
	if buf.Len() != 0 {
		t.Fatalf("sink wrote %q after an unencodable trace", buf.Bytes())
	}
	if err == nil || err.Error() != "audit: jsonl sink: "+marshalErr.Error() {
		t.Fatalf("EndRun error %v, want the wrapped %v", err, marshalErr)
	}
}

// TestJSONLObserveSlotAllocFree asserts a steady-state ObserveSlot — the
// line encoded into the sink's reused buffer, then written — allocates
// nothing, fault kinds and run label included.
func TestJSONLObserveSlotAllocFree(t *testing.T) {
	j := NewJSONL(io.Discard)
	s := cleanSlot(3, 0)
	s.Run = "E14/greenmatch"
	s.FaultsActive = []string{"crash", "supply-dropout"}
	s.SupplyFaultWh, s.BatteryFadeFactor, s.DegradedMode = 12.5, 0.93, true
	j.ObserveSlot(s)
	if allocs := testing.AllocsPerRun(200, func() { j.ObserveSlot(s) }); allocs != 0 {
		t.Errorf("JSONL.ObserveSlot allocates %.1f per call, want 0", allocs)
	}
}

// FuzzSlotTraceJSON holds the append encoder to json.Marshal over
// arbitrary float, int, bool and string fields, including ±Inf/NaN, where
// both must fail with the same error.
func FuzzSlotTraceJSON(f *testing.F) {
	f.Add(1.0, 0.25, -3.5, 7, -2, true, false, "greenmatch", "crash supply-dropout")
	f.Add(1e-7, 1e21, 0.0, 0, 1<<40, false, true, "", "")
	f.Add(math.Inf(1), math.NaN(), math.Inf(-1), -1, 3, true, true, "a<b>&\"c\"", "\xff  ")
	f.Add(math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1), 1, 1, false, false, "E8", "x")
	f.Fuzz(func(t *testing.T, a, b, c float64, i, k int, p, q bool, label, faults string) {
		s := SlotTrace{
			Run: label, Slot: i, Policy: label, SlotHours: a,
			DemandWh: b, MigrationWh: c, TransitionWh: a * b, LoadWh: a + c,
			GreenAvailWh: b - c, GreenDirectWh: -a, BatteryOutWh: c * 1e-9, BrownWh: b * 1e15,
			BatteryInWh: a / 3, GreenLostWh: c, BatteryEffLossWh: b, BatterySelfLossWh: a,
			BatteryStoredWh: c, BatteryUsableWh: b, BatterySoC: a, BatteryUnbounded: p,
			Starts: k, Suspensions: -i, Migrations: i ^ k, Promotions: k, Deferred: i,
			Consolidate: q, SpinDownDisks: p != q,
			NodesOn: i, DisksSpun: k, NodeBoots: i, NodeShutdowns: k, DiskSpinUps: i, DiskSpinDowns: k,
			JobsRunning: i, JobsWaiting: k, Completions: i, DeadlineMisses: k, ColdReads: i,
			UnservedReads: k, NodeFailures: i, Evictions: k, CoverageOK: p, FailedNodes: k,
			FaultsActive: strings.Fields(faults), SupplyFaultWh: c, BatteryFadeFactor: b, DegradedMode: q,
		}
		checkSlotEncoding(t, s)
		checkTotalsEncoding(t, RunTotals{
			Run: faults, Policy: label, Slots: i,
			DemandWh: a, MigrationWh: b, TransitionWh: c, GreenProducedWh: a * c,
			GreenDirectWh: b / 7, BatteryOutWh: -c, BrownWh: a, BatteryInWh: b, GreenLostWh: c,
			BatteryEffLossWh: a, BatterySelfLossWh: b, Submitted: k, Completed: i, DeadlineMisses: k,
		})
	})
}
