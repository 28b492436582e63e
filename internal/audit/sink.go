package audit

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// JSONL streams one JSON object per slot trace (and one per run's totals,
// tagged "kind":"totals") to a writer. It is goroutine-safe, so a single
// JSONL sink may be shared by many concurrent runs — lines from different
// runs interleave but each carries its Run label. Write errors are sticky
// and reported by EndRun.
//
// Lines are append-encoded into one buffer the sink reuses (encode.go):
// the bytes are exactly json.Marshal's, and a steady-state ObserveSlot
// allocates nothing.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	err error
	buf []byte
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// writeLine writes an encoded line plus a newline, or records the encoding
// error, and keeps the line's buffer for the next one. The caller holds mu.
func (j *JSONL) writeLine(line []byte, err error) {
	if err == nil {
		line = append(line, '\n')
		_, err = j.w.Write(line)
	}
	j.buf = line[:0]
	if err != nil {
		j.err = fmt.Errorf("audit: jsonl sink: %w", err)
	}
}

// ObserveSlot writes the trace as one JSON line.
func (j *JSONL) ObserveSlot(s SlotTrace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.writeLine(appendSlotTrace(j.buf, &s))
	}
}

// EndRun writes the run totals as a JSON line and reports any sticky write
// error.
func (j *JSONL) EndRun(tot RunTotals) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.writeLine(appendTotalsLine(j.buf, &tot))
	}
	return j.err
}

// Close flushes the underlying writer when it is buffered and reports the
// sticky error — called on every CLI exit path, so a trace cut short by a
// failed or canceled run still reaches disk as complete JSON lines.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := flushWriter(j.w); err != nil && j.err == nil {
		j.err = fmt.Errorf("audit: jsonl sink: %w", err)
	}
	return j.err
}

// flusher is the buffered-writer surface (bufio.Writer) the sinks flush at
// Close.
type flusher interface{ Flush() error }

func flushWriter(w io.Writer) error {
	if f, ok := w.(flusher); ok {
		return f.Flush()
	}
	return nil
}

// csvColumns defines the CSV sink's column order.
var csvColumns = []string{
	"run", "slot", "policy", "slot_hours",
	"demand_wh", "migration_wh", "transition_wh", "load_wh",
	"green_avail_wh", "green_direct_wh", "battery_out_wh", "brown_wh",
	"battery_in_wh", "green_lost_wh", "battery_eff_loss_wh", "battery_self_loss_wh",
	"battery_stored_wh", "battery_usable_wh", "battery_soc",
	"starts", "suspensions", "migrations", "promotions", "deferred",
	"nodes_on", "disks_spun", "node_boots", "node_shutdowns",
	"disk_spin_ups", "disk_spin_downs", "jobs_running", "jobs_waiting",
	"completions", "deadline_misses", "cold_reads", "unserved_reads",
	"node_failures", "evictions", "coverage_ok", "failed_nodes",
}

// CSV streams slot traces as comma-separated rows with a header line. Each
// row reaches the writer as a single Write, so a run dying mid-slot can
// leave at most a missing row, never a torn one. It serves a single run (no
// locking); share runs through JSONL instead.
type CSV struct {
	w      io.Writer
	err    error
	header bool
	line   []byte
}

// NewCSV returns a CSV sink writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: w} }

// write appends to the pending line; endLine emits it as one Write.
func (c *CSV) write(s string) { c.line = append(c.line, s...) }

func (c *CSV) endLine() {
	c.line = append(c.line, '\n')
	if c.err == nil {
		if _, err := c.w.Write(c.line); err != nil {
			c.err = fmt.Errorf("audit: csv sink: %w", err)
		}
	}
	c.line = c.line[:0]
}

// ObserveSlot writes one CSV row (preceded by the header on first use).
func (c *CSV) ObserveSlot(s SlotTrace) {
	if !c.header {
		c.header = true
		for i, col := range csvColumns {
			if i > 0 {
				c.write(",")
			}
			c.write(col)
		}
		c.endLine()
	}
	f := strconv.FormatFloat
	i := strconv.Itoa
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	row := []string{
		s.Run, i(s.Slot), s.Policy, f(s.SlotHours, 'g', -1, 64),
		f(s.DemandWh, 'g', -1, 64), f(s.MigrationWh, 'g', -1, 64),
		f(s.TransitionWh, 'g', -1, 64), f(s.LoadWh, 'g', -1, 64),
		f(s.GreenAvailWh, 'g', -1, 64), f(s.GreenDirectWh, 'g', -1, 64),
		f(s.BatteryOutWh, 'g', -1, 64), f(s.BrownWh, 'g', -1, 64),
		f(s.BatteryInWh, 'g', -1, 64), f(s.GreenLostWh, 'g', -1, 64),
		f(s.BatteryEffLossWh, 'g', -1, 64), f(s.BatterySelfLossWh, 'g', -1, 64),
		f(s.BatteryStoredWh, 'g', -1, 64), f(s.BatteryUsableWh, 'g', -1, 64),
		f(s.BatterySoC, 'g', -1, 64),
		i(s.Starts), i(s.Suspensions), i(s.Migrations), i(s.Promotions), i(s.Deferred),
		i(s.NodesOn), i(s.DisksSpun), i(s.NodeBoots), i(s.NodeShutdowns),
		i(s.DiskSpinUps), i(s.DiskSpinDowns), i(s.JobsRunning), i(s.JobsWaiting),
		i(s.Completions), i(s.DeadlineMisses), i(s.ColdReads), i(s.UnservedReads),
		i(s.NodeFailures), i(s.Evictions), b(s.CoverageOK), i(s.FailedNodes),
	}
	for k, cell := range row {
		if k > 0 {
			c.write(",")
		}
		c.write(cell)
	}
	c.endLine()
}

// EndRun reports any sticky write error.
func (c *CSV) EndRun(RunTotals) error { return c.err }

// Close flushes the underlying writer when it is buffered and reports the
// sticky error.
func (c *CSV) Close() error {
	if err := flushWriter(c.w); err != nil && c.err == nil {
		c.err = fmt.Errorf("audit: csv sink: %w", err)
	}
	return c.err
}

// Prom renders the run's cumulative account as Prometheus text-exposition
// gauges at EndRun (per-slot values are a time series, which the exposition
// format snapshots rather than streams; scrape-style consumers want the
// totals). It serves a single run.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm returns a Prometheus-text sink writing to w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// ObserveSlot is a no-op; Prom exposes end-of-run totals only.
func (p *Prom) ObserveSlot(SlotTrace) {}

// EndRun writes the exposition text.
func (p *Prom) EndRun(tot RunTotals) error {
	labels := fmt.Sprintf("policy=%q", tot.Policy)
	if tot.Run != "" {
		labels += fmt.Sprintf(",run=%q", tot.Run)
	}
	gauge := func(name, help string, v float64) {
		if p.err != nil {
			return
		}
		_, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s gauge\n%s{%s} %g\n",
			name, help, name, name, labels, v)
		if err != nil {
			p.err = fmt.Errorf("audit: prom sink: %w", err)
		}
	}
	gauge("greenmatch_slots", "Slots simulated.", float64(tot.Slots))
	gauge("greenmatch_demand_wh", "IT-load energy in watt-hours.", tot.DemandWh)
	gauge("greenmatch_migration_wh", "VM migration overhead energy.", tot.MigrationWh)
	gauge("greenmatch_transition_wh", "Node/disk transition overhead energy.", tot.TransitionWh)
	gauge("greenmatch_green_produced_wh", "Renewable energy produced.", tot.GreenProducedWh)
	gauge("greenmatch_green_direct_wh", "Renewable energy consumed directly.", tot.GreenDirectWh)
	gauge("greenmatch_battery_out_wh", "Energy delivered by the ESD.", tot.BatteryOutWh)
	gauge("greenmatch_brown_wh", "Grid (brown) energy drawn.", tot.BrownWh)
	gauge("greenmatch_battery_in_wh", "Surplus accepted by the ESD.", tot.BatteryInWh)
	gauge("greenmatch_green_lost_wh", "Renewable energy lost.", tot.GreenLostWh)
	gauge("greenmatch_battery_eff_loss_wh", "ESD charging-efficiency loss.", tot.BatteryEffLossWh)
	gauge("greenmatch_battery_self_loss_wh", "ESD self-discharge loss.", tot.BatterySelfLossWh)
	gauge("greenmatch_jobs_submitted", "Jobs submitted.", float64(tot.Submitted))
	gauge("greenmatch_jobs_completed", "Jobs completed.", float64(tot.Completed))
	gauge("greenmatch_deadline_misses", "Jobs that missed their deadline.", float64(tot.DeadlineMisses))
	return p.err
}

// Close flushes the underlying writer when it is buffered and reports the
// sticky error.
func (p *Prom) Close() error {
	if err := flushWriter(p.w); err != nil && p.err == nil {
		p.err = fmt.Errorf("audit: prom sink: %w", err)
	}
	return p.err
}
