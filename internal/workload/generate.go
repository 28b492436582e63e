package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// GenConfig parameterizes the synthetic trace generator.
type GenConfig struct {
	// Slots is the horizon over which jobs arrive (completions may run
	// past it; the simulator extends its run accordingly).
	Slots int
	// WebJobs and BatchJobs are the population sizes over the horizon.
	// The defaults mirror the genre's reference week: 787 web, 3148 batch.
	WebJobs   int
	BatchJobs int
	// ScrubJobs, BackupJobs and RepairJobs size the storage-maintenance
	// classes (all deferrable, I/O bound).
	ScrubJobs  int
	BackupJobs int
	RepairJobs int
	// WebDuration and BatchDuration are the mean durations in slots.
	WebDuration   int
	BatchDuration int
	// BatchDeadlineSlack is how many slots past submit a batch job's
	// deadline lies (12 in the reference week: 6 h work in a 12 h window).
	BatchDeadlineSlack int
	// Seed fixes the draw.
	Seed int64
}

// DefaultGen returns the reference week: 168 slots, 787 web jobs of ~12
// slots, 3148 batch jobs of ~6 slots with deadline submit+12, plus a
// storage-maintenance population (daily backups, weekly scrub waves,
// sporadic repairs).
func DefaultGen() GenConfig {
	return GenConfig{
		Slots:              168,
		WebJobs:            787,
		BatchJobs:          3148,
		ScrubJobs:          120,
		BackupJobs:         140,
		RepairJobs:         60,
		WebDuration:        12,
		BatchDuration:      6,
		BatchDeadlineSlack: 12,
		Seed:               1,
	}
}

// Scaled returns the default generator with all populations multiplied by
// f, for sizing studies on larger or smaller clusters.
func Scaled(f float64) GenConfig {
	c := DefaultGen()
	scale := func(n int) int { return int(math.Round(float64(n) * f)) }
	c.WebJobs = scale(c.WebJobs)
	c.BatchJobs = scale(c.BatchJobs)
	c.ScrubJobs = scale(c.ScrubJobs)
	c.BackupJobs = scale(c.BackupJobs)
	c.RepairJobs = scale(c.RepairJobs)
	return c
}

// Validate reports a descriptive error for inconsistent parameters.
func (c GenConfig) Validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("workload: non-positive horizon %d", c.Slots)
	}
	if c.WebJobs < 0 || c.BatchJobs < 0 || c.ScrubJobs < 0 || c.BackupJobs < 0 || c.RepairJobs < 0 {
		return fmt.Errorf("workload: negative job population")
	}
	if c.WebDuration <= 0 || c.BatchDuration <= 0 {
		return fmt.Errorf("workload: non-positive durations")
	}
	if c.BatchDeadlineSlack < 0 {
		return fmt.Errorf("workload: negative deadline slack %d", c.BatchDeadlineSlack)
	}
	return nil
}

// diurnalWeight is the relative arrival intensity at the given hour of day:
// a double-humped business-hours curve with a deep night trough, matching
// the shape of private-cloud arrival logs.
func diurnalWeight(hourOfDay int) float64 {
	h := float64(hourOfDay)
	// Base plus two Gaussian humps at 10:00 and 15:00.
	w := 0.25 +
		1.0*math.Exp(-((h-10)*(h-10))/8) +
		0.8*math.Exp(-((h-15)*(h-15))/10)
	return w
}

// sampleArrivalSlot draws an arrival slot over the horizon using the
// diurnal weights.
func sampleArrivalSlot(s *rng.Stream, slots int, cum []float64) int {
	u := s.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo % slots
}

// Generate produces a deterministic synthetic trace.
func Generate(cfg GenConfig) (Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := rng.New(cfg.Seed, "workload-gen")

	// Cumulative diurnal weights across the horizon.
	cum := make([]float64, cfg.Slots)
	acc := 0.0
	for i := 0; i < cfg.Slots; i++ {
		acc += diurnalWeight(i % 24)
		cum[i] = acc
	}

	tr := make(Trace, 0, cfg.WebJobs+cfg.BatchJobs+cfg.ScrubJobs+cfg.BackupJobs+cfg.RepairJobs)
	id := 0
	add := func(j Job) {
		j.ID = id
		id++
		tr = append(tr, j)
	}

	duration := func(mean int) int {
		// Log-normal-ish spread around the mean, floored at 1 slot.
		d := int(math.Round(s.LogNormal(math.Log(float64(mean)), 0.3)))
		if d < 1 {
			d = 1
		}
		if d > 4*mean {
			d = 4 * mean
		}
		return d
	}
	resources := func() (cpu, ram float64) {
		return s.Uniform(0.5, 2.0), s.Uniform(1, 4)
	}
	// Interactive and batch VMs run well below their reservation on
	// average; maintenance I/O jobs run close to it. The draw comes from
	// its own stream so adding the utilization model did not perturb the
	// durations/resources of previously published traces.
	us := rng.New(cfg.Seed, "workload-gen-util")
	vmUtil := func() float64 { return us.Uniform(0.5, 0.8) }

	for i := 0; i < cfg.WebJobs; i++ {
		sub := sampleArrivalSlot(s, cfg.Slots, cum)
		d := duration(cfg.WebDuration)
		cpu, ram := resources()
		add(Job{Class: Web, Submit: sub, Duration: d, Deadline: sub + d, CPU: cpu, RAMGB: ram, UtilMean: vmUtil()})
	}
	for i := 0; i < cfg.BatchJobs; i++ {
		sub := sampleArrivalSlot(s, cfg.Slots, cum)
		d := duration(cfg.BatchDuration)
		slack := cfg.BatchDeadlineSlack
		dl := sub + d + slack
		if minDl := sub + d; dl < minDl {
			dl = minDl
		}
		cpu, ram := resources()
		add(Job{Class: Batch, Submit: sub, Duration: d, Deadline: dl, CPU: cpu, RAMGB: ram, UtilMean: vmUtil()})
	}
	// Scrub waves: spread uniformly, long deadlines (2 days), I/O bound.
	for i := 0; i < cfg.ScrubJobs; i++ {
		sub := s.Intn(cfg.Slots)
		d := 2 + s.Intn(3)
		add(Job{Class: Scrub, Submit: sub, Duration: d, Deadline: sub + d + 48, CPU: 1, RAMGB: 1, IOBound: true, UtilMean: 0.9})
	}
	// Backups: submitted each evening (hour 20), one day of slack.
	if cfg.BackupJobs > 0 {
		days := (cfg.Slots + 23) / 24
		perDay := (cfg.BackupJobs + days - 1) / days
		made := 0
		for day := 0; day < days && made < cfg.BackupJobs; day++ {
			for k := 0; k < perDay && made < cfg.BackupJobs; k++ {
				sub := day*24 + 20
				if sub >= cfg.Slots {
					sub = cfg.Slots - 1
				}
				d := 1 + s.Intn(3)
				add(Job{Class: Backup, Submit: sub, Duration: d, Deadline: sub + d + 24, CPU: 0.5, RAMGB: 1, IOBound: true, UtilMean: 0.9})
				made++
			}
		}
	}
	// Repairs: Poisson-like sporadic arrivals, short deadlines (8 slots of
	// slack: degraded redundancy should not persist).
	for i := 0; i < cfg.RepairJobs; i++ {
		sub := s.Intn(cfg.Slots)
		d := 1 + s.Intn(2)
		add(Job{Class: Repair, Submit: sub, Duration: d, Deadline: sub + d + 8, CPU: 1, RAMGB: 1, IOBound: true, UtilMean: 0.9})
	}

	tr = sortBySubmit(tr, cfg.Slots)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generator produced invalid trace: %w", err)
	}
	return tr, nil
}

// sortBySubmit returns the jobs in (Submit, ID) order. They arrive in ID
// order with every Submit in [0, slots), so a stable counting sort by
// Submit gives exactly that order.
func sortBySubmit(jobs Trace, slots int) Trace {
	next := make([]int, slots+1) // next[s+1]: jobs submitted at s
	for i := range jobs {
		next[jobs[i].Submit+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	sorted := make(Trace, len(jobs))
	for i := range jobs {
		s := jobs[i].Submit
		sorted[next[s]] = jobs[i]
		next[s]++
	}
	return sorted
}
