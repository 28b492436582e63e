package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// mustGenerate generates the trace for cfg, failing t on error.
func mustGenerate(t testing.TB, cfg GenConfig) Trace {
	t.Helper()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClassString(t *testing.T) {
	want := map[Class]string{Web: "web", Batch: "batch", Scrub: "scrub", Backup: "backup", Repair: "repair"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
		back, err := ParseClass(s)
		if err != nil || back != c {
			t.Errorf("ParseClass(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Error("unknown class should error")
	}
}

func TestDeferrable(t *testing.T) {
	if Web.Deferrable() {
		t.Error("web jobs are not deferrable")
	}
	for _, c := range []Class{Batch, Scrub, Backup, Repair} {
		if !c.Deferrable() {
			t.Errorf("%v should be deferrable", c)
		}
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{ID: 1, Class: Batch, Submit: 5, Duration: 6, Deadline: 17, CPU: 1, RAMGB: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{ID: 1, Duration: 0, Deadline: 10, CPU: 1},
		{ID: 1, Submit: -1, Duration: 1, Deadline: 10, CPU: 1},
		{ID: 1, Submit: 5, Duration: 6, Deadline: 10, CPU: 1}, // deadline < submit+duration
		{ID: 1, Duration: 1, Deadline: 1, CPU: 0},
		{ID: 1, Duration: 1, Deadline: 1, CPU: 1, RAMGB: -1},
	}
	for i, j := range bad {
		if j.Validate() == nil {
			t.Errorf("case %d should be invalid: %+v", i, j)
		}
	}
}

func TestSlackAt(t *testing.T) {
	j := Job{Submit: 0, Duration: 6, Deadline: 12}
	if got := j.SlackAt(0, 6); got != 6 {
		t.Errorf("slack at submit = %d, want 6", got)
	}
	if got := j.SlackAt(6, 6); got != 0 {
		t.Errorf("slack at latest start = %d, want 0", got)
	}
	if got := j.SlackAt(8, 6); got != -2 {
		t.Errorf("slack past latest start = %d, want -2", got)
	}
	// Slack grows as work completes.
	if got := j.SlackAt(6, 3); got != 3 {
		t.Errorf("slack with partial progress = %d, want 3", got)
	}
}

func TestGenerateReferencePopulation(t *testing.T) {
	tr := mustGenerate(t, DefaultGen())
	st := ComputeStats(tr)
	if st.Count[Web] != 787 {
		t.Errorf("web count %d, want 787", st.Count[Web])
	}
	if st.Count[Batch] != 3148 {
		t.Errorf("batch count %d, want 3148", st.Count[Batch])
	}
	if st.Count[Scrub] != 120 || st.Count[Backup] != 140 || st.Count[Repair] != 60 {
		t.Errorf("maintenance population wrong: %+v", st.Count)
	}
	if st.Horizon <= 168 {
		t.Errorf("horizon %d should extend past arrival window", st.Horizon)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, DefaultGen())
	b := mustGenerate(t, DefaultGen())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := DefaultGen()
	cfg.Seed = 99
	a := mustGenerate(t, DefaultGen())
	b := mustGenerate(t, cfg)
	same := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr := mustGenerate(t, DefaultGen())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, j := range tr {
		if j.Class == Web && j.Deadline != j.Submit+j.Duration {
			t.Fatalf("web job %d has slack", j.ID)
		}
		if j.Class == Batch && j.Deadline != j.Submit+j.Duration+12 {
			t.Fatalf("batch job %d deadline %d, want submit+dur+12", j.ID, j.Deadline)
		}
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	tr := mustGenerate(t, DefaultGen())
	byHour := make([]int, 24)
	for _, j := range tr {
		if j.Class == Web {
			byHour[j.Submit%24]++
		}
	}
	night := byHour[2] + byHour[3] + byHour[4]
	day := byHour[9] + byHour[10] + byHour[11]
	if day <= 2*night {
		t.Errorf("arrivals not diurnal: day=%d night=%d", day, night)
	}
}

func TestGenerateScaled(t *testing.T) {
	tr := mustGenerate(t, Scaled(0.5))
	st := ComputeStats(tr)
	if st.Count[Web] < 380 || st.Count[Web] > 410 {
		t.Errorf("scaled web count %d, want ~394", st.Count[Web])
	}
}

func TestGenerateErrors(t *testing.T) {
	mut := func(f func(*GenConfig)) GenConfig {
		c := DefaultGen()
		f(&c)
		return c
	}
	bad := []GenConfig{
		mut(func(c *GenConfig) { c.Slots = 0 }),
		mut(func(c *GenConfig) { c.Slots = -1 }),
		mut(func(c *GenConfig) { c.WebJobs = -1 }),
		mut(func(c *GenConfig) { c.WebDuration = 0 }),
		mut(func(c *GenConfig) { c.BatchDeadlineSlack = -1 }),
	}
	for i, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestGenerateRejectsBadGen pins the config that MustGenerate used to panic
// on: Generate reports it as an error and returns no trace.
func TestGenerateRejectsBadGen(t *testing.T) {
	c := DefaultGen()
	c.Slots = -1
	tr, err := Generate(c)
	if err == nil {
		t.Fatal("Generate with Slots = -1 should fail")
	}
	if tr != nil {
		t.Errorf("Generate returned %d jobs alongside its error", len(tr))
	}
}

func TestTraceValidateOrdering(t *testing.T) {
	tr := Trace{
		{ID: 0, Class: Web, Submit: 5, Duration: 1, Deadline: 6, CPU: 1},
		{ID: 1, Class: Web, Submit: 2, Duration: 1, Deadline: 3, CPU: 1},
	}
	if tr.Validate() == nil {
		t.Error("unsorted trace should fail validation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := mustGenerate(t, DefaultGen())
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip length %d != %d", len(back), len(orig))
	}
	for i := range orig {
		a, b := orig[i], back[i]
		if a.ID != b.ID || a.Class != b.Class || a.Submit != b.Submit ||
			a.Duration != b.Duration || a.Deadline != b.Deadline || a.IOBound != b.IOBound {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"id,class,submit,duration,deadline,cpu,ram_gb,io_bound\n0,web,0,0,0,1,1,false\n",   // zero duration
		"id,class,submit,duration,deadline,cpu,ram_gb,io_bound\n0,alien,0,1,1,1,1,false\n", // bad class
		"id,class,submit,duration,deadline,cpu,ram_gb,io_bound\nx,web,0,1,1,1,1,false\n",   // bad id
		"id,class,submit,duration,deadline,cpu,ram_gb,io_bound\n0,web,0,1,1,x,1,false\n",   // bad cpu
		"id,class,submit,duration,deadline,cpu,ram_gb,io_bound\n0,web,0,1,1,1,1,maybe\n",   // bad bool
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestComputeStatsCPUHours(t *testing.T) {
	tr := Trace{
		{ID: 0, Class: Web, Submit: 0, Duration: 4, Deadline: 4, CPU: 2},
		{ID: 1, Class: Batch, Submit: 0, Duration: 3, Deadline: 15, CPU: 1},
	}
	st := ComputeStats(tr)
	if st.CPUHours[Web] != 8 || st.CPUHours[Batch] != 3 {
		t.Fatalf("cpu-hours wrong: %+v", st.CPUHours)
	}
}

func TestGeneratePropertyAllJobsFeasible(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		cfg := Scaled(float64(scaleRaw%20)/10 + 0.1)
		cfg.Seed = seed
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, j := range tr {
			// Every generated job must be individually feasible.
			if j.SlackAt(j.Submit, j.Duration) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestArrivalHistogram(t *testing.T) {
	tr := Trace{
		{ID: 0, Class: Web, Submit: 0, Duration: 1, Deadline: 1, CPU: 1},
		{ID: 1, Class: Web, Submit: 24, Duration: 1, Deadline: 25, CPU: 1},
		{ID: 2, Class: Web, Submit: 5, Duration: 1, Deadline: 6, CPU: 1},
	}
	h := tr.ArrivalHistogram()
	if h[0] != 2 || h[5] != 1 {
		t.Fatalf("histogram wrong: %v", h)
	}
}

func TestPeakConcurrency(t *testing.T) {
	tr := Trace{
		{ID: 0, Class: Web, Submit: 0, Duration: 3, Deadline: 3, CPU: 1},
		{ID: 1, Class: Web, Submit: 1, Duration: 3, Deadline: 4, CPU: 1},
		{ID: 2, Class: Web, Submit: 2, Duration: 3, Deadline: 5, CPU: 1},
	}
	if got := tr.PeakConcurrency(); got != 3 {
		t.Fatalf("peak concurrency %d, want 3", got)
	}
	if (Trace{}).PeakConcurrency() != 0 {
		t.Fatal("empty trace peak should be 0")
	}
}

func TestSlackHistogram(t *testing.T) {
	tr := mustGenerate(t, DefaultGen())
	h := tr.SlackHistogram()
	total := 0
	for _, v := range h {
		total += v
	}
	st := ComputeStats(tr)
	wantTotal := len(tr) - st.Count[Web]
	if total != wantTotal {
		t.Fatalf("slack histogram covers %d jobs, want %d deferrable", total, wantTotal)
	}
	// Batch jobs have 12 slots of slack: the 5-12 bucket must dominate.
	if h["5-12"] < st.Count[Batch]/2 {
		t.Fatalf("5-12 bucket %d too small for %d batch jobs", h["5-12"], st.Count[Batch])
	}
}

func TestUtilAt(t *testing.T) {
	j := Job{ID: 42, UtilMean: 0.6}
	// Deterministic per (job, slot).
	if j.UtilAt(5) != j.UtilAt(5) {
		t.Fatal("UtilAt not deterministic")
	}
	// Varies across slots (at least sometimes).
	varies := false
	for s := 1; s < 20; s++ {
		if j.UtilAt(s) != j.UtilAt(0) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("UtilAt constant across slots")
	}
	// Bounded and mean-tracking.
	sum := 0.0
	n := 2000
	for s := 0; s < n; s++ {
		u := j.UtilAt(s)
		if u < 0.05 || u > 1 {
			t.Fatalf("util %v out of bounds", u)
		}
		sum += u
	}
	mean := sum / float64(n)
	if mean < 0.54 || mean > 0.66 {
		t.Fatalf("sample mean %v, want ~0.6", mean)
	}
	// Zero UtilMean means full requirement (backward compatibility).
	full := Job{ID: 1}
	if full.UtilAt(3) != 1 {
		t.Fatal("zero UtilMean should mean full utilization")
	}
}

func TestGeneratedUtilMeans(t *testing.T) {
	tr := mustGenerate(t, DefaultGen())
	for _, j := range tr {
		if j.Class == Web || j.Class == Batch {
			if j.UtilMean < 0.5 || j.UtilMean > 0.8 {
				t.Fatalf("%v job %d util mean %v outside [0.5, 0.8]", j.Class, j.ID, j.UtilMean)
			}
		} else if j.UtilMean != 0.9 {
			t.Fatalf("maintenance job %d util mean %v, want 0.9", j.ID, j.UtilMean)
		}
	}
}
