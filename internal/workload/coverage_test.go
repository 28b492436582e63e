package workload

import (
	"strings"
	"testing"
)

func TestReadCSVRejectsMalformedRows(t *testing.T) {
	cases := map[string]string{
		"empty file":     "",
		"short row":      "id,class,submit,duration,deadline,cpu,ram_gb,io_bound,util_mean\n1,web,0\n",
		"bad id":         "x,web,0,1,2,1.0,1.0,false,0.5\n",
		"bad class":      "1,alien,0,1,2,1.0,1.0,false,0.5\n",
		"bad submit":     "1,web,x,1,2,1.0,1.0,false,0.5\n",
		"bad duration":   "1,web,0,x,2,1.0,1.0,false,0.5\n",
		"bad deadline":   "1,web,0,1,x,1.0,1.0,false,0.5\n",
		"bad cpu":        "1,web,0,1,2,x,1.0,false,0.5\n",
		"bad ram":        "1,web,0,1,2,1.0,x,false,0.5\n",
		"bad io_bound":   "1,web,0,1,2,1.0,1.0,maybe,0.5\n",
		"bad util":       "1,web,0,1,2,1.0,1.0,false,x\n",
		"invalid job":    "1,web,0,0,2,1.0,1.0,false,0.5\n", // zero duration
		"unsorted trace": "1,web,5,1,7,1.0,1.0,false,0.5\n2,web,0,1,2,1.0,1.0,false,0.5\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV accepted malformed input %q", name, in)
		}
	}
}

func TestCSVRoundTripSmallScale(t *testing.T) {
	gen := Scaled(0.05)
	gen.Seed = 7
	tr := mustGenerate(t, gen)
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("round-trip length %d, want %d", len(back), len(tr))
	}
	for i := range tr {
		if tr[i].ID != back[i].ID || tr[i].Class != back[i].Class ||
			tr[i].Submit != back[i].Submit || tr[i].Deadline != back[i].Deadline {
			t.Fatalf("job %d drifted: %+v vs %+v", i, tr[i], back[i])
		}
	}
}

func TestClassStringAndParse(t *testing.T) {
	for _, c := range []Class{Web, Batch, Scrub, Backup, Repair} {
		s := c.String()
		back, err := ParseClass(s)
		if err != nil || back != c {
			t.Fatalf("round-trip of class %v via %q failed: %v", c, s, err)
		}
	}
	if s := Class(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown class should render its number, got %q", s)
	}
	if _, err := ParseClass("alien"); err == nil {
		t.Fatal("ParseClass must reject unknown names")
	}
}

func TestUtilAtBounds(t *testing.T) {
	full := Job{ID: 1} // UtilMean zero means full reservation
	if u := full.UtilAt(0); u != 1 {
		t.Fatalf("zero UtilMean must pin utilization to 1, got %v", u)
	}
	low := Job{ID: 2, UtilMean: 0.01}
	high := Job{ID: 3, UtilMean: 2.5}
	for slot := 0; slot < 200; slot++ {
		if u := low.UtilAt(slot); u < 0.05 {
			t.Fatalf("utilization floor broken: %v at slot %d", u, slot)
		}
		if u := high.UtilAt(slot); u > 1 {
			t.Fatalf("utilization cap broken: %v at slot %d", u, slot)
		}
	}
	// Determinism: same job+slot, same draw.
	j := Job{ID: 9, UtilMean: 0.6}
	if j.UtilAt(17) != j.UtilAt(17) {
		t.Fatal("UtilAt must be deterministic")
	}
}

func TestJobValidateErrors(t *testing.T) {
	good := Job{ID: 1, Class: Web, Submit: 0, Duration: 2, Deadline: 4, CPU: 1, RAMGB: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := map[string]Job{
		"zero duration":    {ID: 1, Duration: 0, Deadline: 4, CPU: 1},
		"negative submit":  {ID: 1, Submit: -1, Duration: 2, Deadline: 4, CPU: 1},
		"tight deadline":   {ID: 1, Submit: 0, Duration: 5, Deadline: 4, CPU: 1},
		"non-positive cpu": {ID: 1, Duration: 2, Deadline: 4, CPU: 0},
		"negative ram":     {ID: 1, Duration: 2, Deadline: 4, CPU: 1, RAMGB: -1},
	}
	for name, j := range cases {
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, j)
		}
	}
}

func TestSlackHistogramBuckets(t *testing.T) {
	mk := func(id, submit, dur, deadline int) Job {
		return Job{ID: id, Class: Batch, Submit: submit, Duration: dur,
			Deadline: deadline, CPU: 1}
	}
	tr := Trace{
		mk(1, 0, 4, 4),   // slack 0
		mk(2, 0, 4, 7),   // slack 3  -> 1-4
		mk(3, 0, 4, 14),  // slack 10 -> 5-12
		mk(4, 0, 4, 24),  // slack 20 -> 13-24
		mk(5, 0, 4, 100), // slack 96 -> 25+
		{ID: 6, Class: Web, Submit: 0, Duration: 4, Deadline: 100, CPU: 1}, // not deferrable
	}
	h := tr.SlackHistogram()
	for bucket, want := range map[string]int{"0": 1, "1-4": 1, "5-12": 1, "13-24": 1, "25+": 1} {
		if h[bucket] != want {
			t.Errorf("bucket %q = %d, want %d (full histogram %v)", bucket, h[bucket], want, h)
		}
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 5 {
		t.Errorf("non-deferrable job leaked into histogram: %v", h)
	}
}
