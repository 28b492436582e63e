package greenmatch

// Oracle property suite: the offline-optimal oracle (internal/oracle) must
// be a true lower bound. For every shipped scenario and for randomized
// chaos fault schedules, every arena policy's simulated brown energy must
// be at least the oracle's bound — a competitive ratio below 1 means the
// "optimal" isn't. The suite also keeps the oracle cheap: solving the
// whole-horizon flow may not cost more than ten simulated runs, or the
// arena experiment stops being a free add-on to a sweep.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/oracle"
	"repro/internal/scenario"
)

// boundTolWh absorbs float formatting noise in the comparison; the bound
// itself is integer watt-hours rounded conservatively, so any violation
// beyond this is a real soundness bug.
const boundTolWh = 1e-6

// TestOracleBoundsScenarioPolicies checks oracle.Brown <= policy brown for
// every shipped scenario at golden scale, across the whole policy arena.
// In -short mode (the CI race pass) it covers the reference and
// failure-storm scenarios only.
func TestOracleBoundsScenarioPolicies(t *testing.T) {
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
			oracleStart := time.Now()
			rep, err := oracle.Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracleDur := time.Since(oracleStart)

			var simDur time.Duration
			for _, pol := range expt.ArenaPolicies() {
				cfg.Policy = pol
				runStart := time.Now()
				res, err := core.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", pol.Name(), err)
				}
				if d := time.Since(runStart); d > simDur {
					simDur = d
				}
				if res.Energy.Brown.Wh() < rep.Brown.Wh()-boundTolWh {
					t.Errorf("%s: simulated brown %v below oracle bound %v — the oracle is not a lower bound",
						pol.Name(), res.Energy.Brown, rep.Brown)
				}
			}
			// The oracle must stay cheap relative to one simulated run. The
			// floor keeps sub-millisecond runs from turning scheduler jitter
			// into flakes.
			if floor := 100 * time.Millisecond; simDur < floor {
				simDur = floor
			}
			if oracleDur > 10*simDur {
				t.Errorf("oracle took %v, more than 10x the slowest simulated run (%v)", oracleDur, simDur)
			}
		})
	}
}

// TestOracleBoundsChaosSeeds checks the same bound under generated chaos
// fault schedules — supply dropouts and curtailment the oracle must meter
// identically to the simulator, crash processes that void its availability
// floor — with the arena policies cycling across seeds. 50 seeds in the
// full run, 10 in -short.
func TestOracleBoundsChaosSeeds(t *testing.T) {
	const seeds = 50
	n := seeds
	if testing.Short() {
		n = 10
	}
	pols := expt.ArenaPolicies()
	for i := 0; i < n; i++ {
		i := i
		seed := int64(7000 + i)
		pol := pols[i%len(pols)]
		t.Run(pol.Name()+"/"+string(rune('a'+i%26))+string(rune('a'+i/26)), func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(t, seed)
			rep, err := oracle.Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy.Brown.Wh() < rep.Brown.Wh()-boundTolWh {
				t.Errorf("seed %d policy %s: simulated brown %v below oracle bound %v",
					seed, pol.Name(), res.Energy.Brown, rep.Brown)
			}
		})
	}
}
