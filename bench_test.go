package greenmatch

// The benchmark harness regenerates every figure and table of the
// reconstructed evaluation (DESIGN.md §3): one Benchmark per experiment ID.
// Each iteration executes the full experiment at bench scale and reports
// the headline quantity as a custom metric, so `go test -bench=.` both
// times the harness and emits the numbers EXPERIMENTS.md records.
//
// Micro-benchmarks for the hot substrates (battery settlement, FFD
// placement, set cover, matching, solar generation, end-to-end simulator
// throughput) follow the experiment benches.

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/battery"
	"repro/internal/expt"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/scenarios"
)

// benchParams is the scale experiments run at under the bench harness:
// large enough to preserve every qualitative shape (the expt test suite
// asserts them at 0.2), small enough that the full `-bench=.` sweep
// completes in minutes. Workers is left at the zero value, so each
// experiment's grid sweep fans out across every core — the same default
// `gmexp -all` runs with.
func benchParams() ExperimentParams { return ExperimentParams{Scale: 0.2} }

// runExperiment executes one registry entry per iteration and attaches the
// first numeric cell of the last row of the last table as a custom metric,
// so regressions in the *result*, not only the runtime, are visible. The
// registry lookup runs before the timer starts and the table post-
// processing after it stops, so the reported ns/op covers e.Run alone;
// ReportAllocs makes allocation regressions in the experiment pipeline
// visible alongside the timing.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	params := benchParams()
	var tables []*metrics.Table
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err = e.Run(params)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(tables) > 0 {
		last := tables[len(tables)-1]
		if len(last.Rows) > 0 {
			row := last.Rows[len(last.Rows)-1]
			for _, cell := range row {
				if v, err := strconv.ParseFloat(cell, 64); err == nil {
					b.ReportMetric(v, "result")
					break
				}
			}
		}
	}
}

func BenchmarkE1SupplyDemand(b *testing.B)       { runExperiment(b, "E1") }
func BenchmarkE2PanelSweep(b *testing.B)         { runExperiment(b, "E2") }
func BenchmarkE3BatterySweepIdeal(b *testing.B)  { runExperiment(b, "E3") }
func BenchmarkE4DeferFractions(b *testing.B)     { runExperiment(b, "E4") }
func BenchmarkE5SolarLoss(b *testing.B)          { runExperiment(b, "E5") }
func BenchmarkE6LossDecomposition(b *testing.B)  { runExperiment(b, "E6") }
func BenchmarkE7Chemistry(b *testing.B)          { runExperiment(b, "E7") }
func BenchmarkE8PolicyTable(b *testing.B)        { runExperiment(b, "E8") }
func BenchmarkE9MatchScaling(b *testing.B)       { runExperiment(b, "E9") }
func BenchmarkE10ForecastAblation(b *testing.B)  { runExperiment(b, "E10") }
func BenchmarkE11Coverage(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkE12WindHybrid(b *testing.B)        { runExperiment(b, "E12") }
func BenchmarkE13MixedOptimum(b *testing.B)      { runExperiment(b, "E13") }
func BenchmarkE14FailureResilience(b *testing.B) { runExperiment(b, "E14") }
func BenchmarkE15ServiceQuality(b *testing.B)    { runExperiment(b, "E15") }
func BenchmarkE16CarbonFootprint(b *testing.B)   { runExperiment(b, "E16") }
func BenchmarkE17DVFSAblation(b *testing.B)      { runExperiment(b, "E17") }
func BenchmarkE18Seasonal(b *testing.B)          { runExperiment(b, "E18") }
func BenchmarkE19BatteryAware(b *testing.B)      { runExperiment(b, "E19") }
func BenchmarkE20OvercommitSweep(b *testing.B)   { runExperiment(b, "E20") }
func BenchmarkE21TieredStorage(b *testing.B)     { runExperiment(b, "E21") }
func BenchmarkE22Arena(b *testing.B)             { runExperiment(b, "E22") }

// BenchmarkOracleRatio times the offline-optimal oracle solve on every
// shipped scenario at bench scale and reports each scenario's GreenMatch
// competitive ratio as the `result` metric, extending the gmbench
// RESULT METRIC DRIFT gate to per-scenario ratios: a simulator change that
// silently worsens (or "improves") brown energy relative to the offline
// optimum shows up here scenario by scenario.
func BenchmarkOracleRatio(b *testing.B) {
	for _, name := range scenarios.Names() {
		b.Run(name, func(b *testing.B) {
			sc, err := scenarios.Load(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := sc.Scaled(benchParams().Scale).Compile()
			if err != nil {
				b.Fatal(err)
			}
			cfg.Policy = GreenMatch{}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var rep OracleReport
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = SolveOracle(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if ratio, ok := rep.Ratio(res.Energy.Brown); ok {
				b.ReportMetric(ratio, "result")
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkBatterySlotCycle(b *testing.B) {
	bat, err := battery.New(battery.MustSpec(battery.LithiumIon), 100*units.KilowattHour)
	if err != nil {
		b.Fatal(err)
	}
	cycle := func() {
		bat.Charge(5*units.KilowattHour, 1)
		bat.Discharge(4*units.KilowattHour, 1)
		bat.TickSelfDischarge(1)
	}
	// Warm to the fixed point: the net-positive cycle fills the battery over
	// its first ~150 iterations, so without warmup the measured work (and
	// the stored-energy fixed point the result metric reports) would depend
	// on -benchtime. At the fixed point every iteration does identical work
	// and the metric is iteration-count-invariant.
	prev := bat.Stored()
	for i := 0; i < 10000; i++ {
		cycle()
		if units.ApproxEqual(bat.Stored(), prev, 1e-9) {
			break
		}
		prev = bat.Stored()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(bat.Stored().Wh(), "result")
}

func BenchmarkSolarGenerateWeek(b *testing.B) {
	cfg := solar.DefaultFarm(165.6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solar.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerateWeek times generating the reference week's job
// trace. The result canary, Σ ID·(position+1) mod 2^31, moves if the
// trace's order changes.
func BenchmarkWorkloadGenerateWeek(b *testing.B) {
	cfg := workload.DefaultGen()
	var tr workload.Trace
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr, err = workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sum := 0
	for pos, j := range tr {
		sum = (sum + j.ID*(pos+1)) % (1 << 31)
	}
	b.ReportMetric(float64(sum), "result")
}

// BenchmarkNewCluster times building the reference cluster: node and disk
// construction plus the rendezvous placement of every object's replicas,
// the set-up cost every run, service open and recovery pays. The result
// canary, the sum over objects of the first replica's flat disk index,
// moves if the layout changes.
func BenchmarkNewCluster(b *testing.B) {
	cfg := storage.DefaultConfig()
	var c *storage.Cluster
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c, err = storage.NewCluster(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sum := 0
	for obj := 0; obj < cfg.Objects; obj++ {
		first := c.Replicas(obj)[0]
		sum += first.Node*cfg.NodeProfile.DisksPerNode + first.Disk
	}
	b.ReportMetric(float64(sum), "result")
}

// BenchmarkFFDPlace200Jobs times one reused Placer packing 200 jobs onto
// 30 nodes, the simulator's per-slot placement call: once with the items
// in generated order, and once presorted in FFD order, as the simulator
// now passes them.
func BenchmarkFFDPlace200Jobs(b *testing.B) {
	s := rng.New(1, "bench-ffd")
	items := make([]sched.PlaceItem, 200)
	for i := range items {
		items[i] = sched.PlaceItem{ID: i, CPU: s.Uniform(0.5, 2), RAM: s.Uniform(1, 4), Pinned: -1}
	}
	presorted := slices.Clone(items)
	slices.SortFunc(presorted, sched.CompareFFD)
	for _, bc := range []struct {
		name  string
		items []sched.PlaceItem
	}{{"generated", items}, {"presorted", presorted}} {
		b.Run(bc.name, func(b *testing.B) {
			var p sched.Placer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.Place(bc.items, 30, 12, 32, 1.5, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZipfNext times one Zipf draw over the reference cluster's
// objects at the default skew, the read model's per-read call. The sum of
// the first 10^5 draws at seed 1 is the result canary.
func BenchmarkZipfNext(b *testing.B) {
	objects, theta := storage.DefaultConfig().Objects, 0.9
	z := rng.NewZipf(rng.New(1, "bench-zipf"), objects, theta)
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += z.Next()
	}
	b.StopTimer()
	if sum < 0 {
		b.Fatal("negative item index")
	}
	z = rng.NewZipf(rng.New(1, "bench-zipf"), objects, theta)
	sum = 0
	for i := 0; i < 100000; i++ {
		sum += z.Next()
	}
	b.ReportMetric(float64(sum), "result")
}

// BenchmarkSolarGenerate times a 40,000-slot PV trace, the batch-sparse
// horizon, where the clear-sky table reuses the first year's values. The
// trace's total energy in Wh is the result canary.
func BenchmarkSolarGenerate(b *testing.B) {
	cfg := solar.DefaultFarm(165.6)
	cfg.Slots = 40000
	var s solar.Series
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s, err = solar.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(s.TotalEnergy(cfg.SlotHours).Wh(), "result")
}

// BenchmarkMinimalCover times the greedy replica cover of the reference
// cluster; the cover's size is the result canary.
func BenchmarkMinimalCover(b *testing.B) {
	cl, err := storage.NewCluster(storage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var cover []storage.DiskID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cover = cl.MinimalCover(); len(cover) == 0 {
			b.Fatal("empty cover")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cover)), "result")
}

func benchInstance(n, m int) match.Instance {
	s := rng.New(2, "bench-match")
	in := match.Instance{Weights: make([][]float64, n), Capacity: make([]int, m)}
	for k := range in.Capacity {
		in.Capacity[k] = n/m + 1
	}
	for j := 0; j < n; j++ {
		row := make([]float64, m)
		latest := s.Intn(m)
		for k := range row {
			if k > latest {
				row[k] = match.Forbidden
			} else {
				row[k] = s.Uniform(0, 1)
			}
		}
		in.Weights[j] = row
	}
	return in
}

func BenchmarkMatchFlow100x24(b *testing.B) {
	in := benchInstance(100, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Flow(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchHungarian100x24(b *testing.B) {
	in := benchInstance(100, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Hungarian(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchGreedy100x24(b *testing.B) {
	in := benchInstance(100, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Greedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- transportation solve (match.Solver) micro-benchmarks ---

// benchGrouped builds a grouped transportation instance shaped like the
// ones GreenMatch.Plan emits: g job classes over 24 deadline slots, each
// class restricted to slots up to its deadline (a prefix of non-forbidden
// cells), greenness weights in [0, 1).
func benchGrouped(g int, seed int64) (weights [][]float64, supply, capacity []int) {
	const m = 24
	s := rng.New(seed, "bench-match-plan")
	weights = make([][]float64, g)
	supply = make([]int, g)
	for gi := range weights {
		row := make([]float64, m)
		latest := 4 + s.Intn(m-4)
		for k := range row {
			if k > latest {
				row[k] = match.Forbidden
			} else {
				row[k] = s.Uniform(0, 1)
			}
		}
		weights[gi] = row
		supply[gi] = 1 + s.Intn(4)
	}
	capacity = make([]int, m)
	for k := range capacity {
		capacity[k] = 2*g/m + 2
	}
	return weights, supply, capacity
}

// BenchmarkMatchPlan measures the reusable match.Solver at several
// job-class counts on alternating instances with different forbidden
// patterns, so every solve rebuilds a different graph (into reused
// memory). It is allocation-free once warm.
func BenchmarkMatchPlan(b *testing.B) {
	for _, g := range []int{8, 32, 96} {
		wA, sA, cA := benchGrouped(g, 3)
		wB, sB, cB := benchGrouped(g, 4)
		b.Run(fmt.Sprintf("g%d/cold", g), func(b *testing.B) {
			var sv match.Solver
			solve := func(i int) {
				var err error
				if i%2 == 0 {
					_, err = sv.SolveGrouped(wA, sA, cA)
				} else {
					_, err = sv.SolveGrouped(wB, sB, cB)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ { // warm both instances past the first allocation
				solve(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve(i)
			}
		})
	}
}

// benchCfg builds the shared 20%-scale scenario the throughput benches
// run. Built once per benchmark, outside the timed region: trace and solar
// generation would otherwise dominate the measurement, and the Run
// contract guarantees a Config may be shared across (even concurrent)
// Runs unmutated.
func benchCfg(b *testing.B) Config {
	b.Helper()
	sc := Scenario{Seed: 1, Nodes: 6, Objects: 600, WorkloadScale: 0.2,
		AreaM2: 33, ReadsPerSlot: 40, Policy: "greenmatch"}
	cfg, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkSimulatorSlotThroughput measures end-to-end simulated slots per
// second for the GreenMatch policy at 20% scale.
func BenchmarkSimulatorSlotThroughput(b *testing.B) {
	cfg := benchCfg(b)
	slots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		slots += res.Slots
	}
	b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
}

// BenchmarkLiveDecisionThroughput measures the steady-state decision rate
// of the steppable live scheduler — the core cmd/gmserve drives — stepping
// slot by slot the way the daemon's tick path does instead of through the
// batch loop. decisions/s is the service's headline capacity number; the
// per-run decision count is deterministic and doubles as the `result`
// metric, so the gmbench drift gate pins the decision stream itself, not
// just its speed.
func BenchmarkLiveDecisionThroughput(b *testing.B) {
	cfg := benchCfg(b)
	decisions, perRun := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := NewLiveScheduler(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for !l.Drained() {
			if err := l.StepTo(l.NextSlot()); err != nil { // exactly one slot, like a tick
				b.Fatal(err)
			}
		}
		if _, err := l.Finalize(); err != nil {
			b.Fatal(err)
		}
		decisions += l.NextSlot()
		perRun = l.NextSlot()
	}
	b.StopTimer()
	b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(perRun), "result")
}

// sparseBenchCfg builds the event-driven fast path's home turf: an ~8000
// slot horizon over the full-size reference cluster where short, tight-
// deadline batch bursts arrive every 100 slots and run immediately, so the
// cluster is quiescent in between. The solar series is generated for the
// full horizon so supply stays non-degenerate throughout. Per-quiet-slot
// cost of the full pipeline grows with cluster size (power planning, draw
// summation, placement all scan nodes and disks) while the fast kernel's
// does not, so this measures the fast path at the scale it targets.
func sparseBenchCfg(b *testing.B) Config {
	b.Helper()
	const (
		horizon = 40000
		gap     = 200
	)
	// Full fleet, slim catalog: keeps one-time cluster construction from
	// dominating the 40k-slot loop. Cold archive: most slots see no reads
	// at all.
	sc := Scenario{Seed: 1, Nodes: 30, Objects: 300, AreaM2: 165.6,
		SupplySlots: horizon, ReadsPerSlot: 0.1, Policy: "greenmatch"}
	cfg, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var trace []workload.Job
	id := 0
	for submit := 0; submit+gap/2 < horizon; submit += gap {
		for j := 0; j < 4; j++ {
			d := 2 + j
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: submit,
				Duration: d, Deadline: submit + d, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	return cfg
}

// BenchmarkSimulatorSlotThroughputSparse measures end-to-end slots per
// second on the sparse-arrival scenario, with the event-driven slot
// skipping on (the default) and forced off. The slots/s ratio between the
// two sub-benchmarks is the fast path's speedup on its target shape.
func BenchmarkSimulatorSlotThroughputSparse(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sparseBenchCfg(b)
			cfg.DisableSlotSkipping = mode.noSkip
			slots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				slots += res.Slots
			}
			b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
		})
	}
}

// BenchmarkObservedSlotThroughput measures end-to-end slots per second
// with the JSONL audit sink attached (writing to io.Discard), on the busy
// 20%-scale week and on the sparse archive. Set against
// BenchmarkSimulatorSlotThroughput and the sparse skip sub-benchmark, it
// prices observation itself: the fleet walk, the coverage check and the
// line encoding every observed slot pays.
func BenchmarkObservedSlotThroughput(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  func(*testing.B) Config
	}{{"week", benchCfg}, {"sparse", sparseBenchCfg}} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := shape.cfg(b)
			cfg.Observer = NewJSONLSink(io.Discard)
			slots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				slots += res.Slots
			}
			b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
		})
	}
}

// BenchmarkSweepThroughput measures experiment-sweep throughput (full
// simulation runs per second) through the parallel runner, at one worker
// (the historical sequential path) versus one worker per core. On a
// multi-core machine the j=GOMAXPROCS case should approach a linear
// multiple of j=1; on a single-core machine the two converge.
func BenchmarkSweepThroughput(b *testing.B) {
	cfg := benchCfg(b)
	const points = 8
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			jobs := make([]SweepJob, points)
			for k := range jobs {
				jobs[k] = SweepJob{
					Label: fmt.Sprintf("point-%d", k),
					Run:   func() (any, error) { return Run(cfg) },
				}
			}
			runs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SweepErrs(Sweep(jobs, SweepOptions{Workers: workers})); err != nil {
					b.Fatal(err)
				}
				runs += points
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
