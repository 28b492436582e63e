package storage

import (
	"encoding/json"
	"math"
	"testing"
)

// TestLatencySamplesMatchesJSON holds the samples decoder to encoding/json
// decoding into a []float64: same error or not, same values bit for bit,
// nil exactly when encoding/json leaves nil.
func TestLatencySamplesMatchesJSON(t *testing.T) {
	for _, in := range []string{
		`[]`, ` [ ] `, `null`, `[0]`, `[-0]`, `[-0.0]`, `[1,2,3]`, `[ 1 , 2 ,3 ]`,
		"[\t1,\n2\r]", `[1.5e3,2E-2,-3.25e+1,0.000001]`, `[8,8,8.000000000000002]`,
		`[1e308,4.9e-324,2.2250738585072014e-308]`, `[12345678901234567890123]`,
		`[0.1,0.2,0.30000000000000004]`, `[1e400]`, `[-1e400]`, `[01]`, `[1.]`, `[.5]`,
		`[1e]`, `[-]`, `[+1]`, `[1,]`, `[,1]`, `[1 2]`, `[1,,2]`, `[`, `]`, `[1`, `[1]x`,
		`[1]]`, `[0x10]`, `[Infinity]`, `[NaN]`, `[1_000]`, `["1"]`, `[null]`, `[1,null,2]`,
		`[true]`, `[[1]]`, `[{}]`, `{}`, `1`, `""`, ``, ` `, `nul`,
	} {
		var got LatencySamples
		gotErr := json.Unmarshal([]byte(in), &got)
		var want []float64
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: error %v, encoding/json %v", in, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Errorf("%q: decoded %#v, encoding/json %#v", in, got, want)
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%q: sample %d is %v, encoding/json %v", in, i, got[i], want[i])
			}
		}
	}
}

// TestLatencySamplesInState checks the type in its checkpoint field: it
// encodes as a plain array and round-trips through ReadModelState.
func TestLatencySamplesInState(t *testing.T) {
	st := ReadModelState{Draws: 3, Latencies: LatencySamples{8, 0.25, math.Copysign(0, -1), 1e-9}, LatencySum: 8.25}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"draws":3,"latencies":[8,0.25,-0,1e-9],"latency_sum":8.25}`; string(b) != want {
		t.Fatalf("encoded %s, want %s", b, want)
	}
	var back ReadModelState
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Latencies) != 4 || back.Latencies[3] != 1e-9 || !math.Signbit(back.Latencies[2]) {
		t.Fatalf("round trip gave %+v", back)
	}
}
