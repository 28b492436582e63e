package audit

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// This file is the JSONL sink's append encoder: SlotTrace and the totals
// line written field by field into a reused buffer, byte for byte what
// json.Marshal produces for them (field order, omitempty, string escaping
// and the float format), without its reflection walk or allocations. The
// differential tests and FuzzSlotTraceJSON hold it to json.Marshal.

// Each member helper appends a pre-formatted key — the quoted name, colon
// and any leading comma, as in `,"slot":` — then the value.

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

func appendStr(b []byte, key, v string) []byte {
	return appendJSONString(append(b, key...), v)
}

// appendFloat appends v the way encoding/json does: the shortest 'f' form,
// switching to 'e' (with a one-digit negative exponent unpadded) outside
// [1e-6, 1e21). ±Inf and NaN are errors, reported through *err unless an
// earlier member already set it.
//
// Most trace energies are zero or whole watt-hours. Below 2^53 every
// integer is exact and its shortest form is its decimal digits, so those
// take strconv.AppendInt instead of the shortest-digit search.
func appendFloat(b []byte, key string, v float64, err *error) []byte {
	b = append(b, key...)
	if v > -1<<53 && v < 1<<53 {
		// The fractional part is exact below 2^53, so this zero test is an
		// exact integrality test.
		if i := int64(v); v-float64(i) == 0 {
			if i == 0 && math.Signbit(v) {
				b = append(b, '-')
			}
			return strconv.AppendInt(b, i, 10)
		}
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string literal. Printable ASCII
// other than the characters encoding/json escapes is copied as is; any
// other string takes json.Marshal itself, so escaping stays exact.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendSlotTrace appends s as json.Marshal encodes it.
func appendSlotTrace(b []byte, s *SlotTrace) ([]byte, error) {
	var err error
	b = append(b, '{')
	if s.Run != "" {
		b = append(appendStr(b, `"run":`, s.Run), ',')
	}
	b = appendInt(b, `"slot":`, s.Slot)
	b = appendStr(b, `,"policy":`, s.Policy)
	b = appendFloat(b, `,"slot_hours":`, s.SlotHours, &err)
	b = appendFloat(b, `,"demand_wh":`, s.DemandWh, &err)
	b = appendFloat(b, `,"migration_wh":`, s.MigrationWh, &err)
	b = appendFloat(b, `,"transition_wh":`, s.TransitionWh, &err)
	b = appendFloat(b, `,"load_wh":`, s.LoadWh, &err)
	b = appendFloat(b, `,"green_avail_wh":`, s.GreenAvailWh, &err)
	b = appendFloat(b, `,"green_direct_wh":`, s.GreenDirectWh, &err)
	b = appendFloat(b, `,"battery_out_wh":`, s.BatteryOutWh, &err)
	b = appendFloat(b, `,"brown_wh":`, s.BrownWh, &err)
	b = appendFloat(b, `,"battery_in_wh":`, s.BatteryInWh, &err)
	b = appendFloat(b, `,"green_lost_wh":`, s.GreenLostWh, &err)
	b = appendFloat(b, `,"battery_eff_loss_wh":`, s.BatteryEffLossWh, &err)
	b = appendFloat(b, `,"battery_self_loss_wh":`, s.BatterySelfLossWh, &err)
	b = appendFloat(b, `,"battery_stored_wh":`, s.BatteryStoredWh, &err)
	b = appendFloat(b, `,"battery_usable_wh":`, s.BatteryUsableWh, &err)
	b = appendFloat(b, `,"battery_soc":`, s.BatterySoC, &err)
	if s.BatteryUnbounded {
		b = append(b, `,"battery_unbounded":true`...)
	}
	b = appendInt(b, `,"starts":`, s.Starts)
	b = appendInt(b, `,"suspensions":`, s.Suspensions)
	b = appendInt(b, `,"migrations":`, s.Migrations)
	b = appendInt(b, `,"promotions":`, s.Promotions)
	b = appendInt(b, `,"deferred":`, s.Deferred)
	if s.Consolidate {
		b = append(b, `,"consolidate":true`...)
	}
	if s.SpinDownDisks {
		b = append(b, `,"spin_down_disks":true`...)
	}
	b = appendInt(b, `,"nodes_on":`, s.NodesOn)
	b = appendInt(b, `,"disks_spun":`, s.DisksSpun)
	b = appendInt(b, `,"node_boots":`, s.NodeBoots)
	b = appendInt(b, `,"node_shutdowns":`, s.NodeShutdowns)
	b = appendInt(b, `,"disk_spin_ups":`, s.DiskSpinUps)
	b = appendInt(b, `,"disk_spin_downs":`, s.DiskSpinDowns)
	b = appendInt(b, `,"jobs_running":`, s.JobsRunning)
	b = appendInt(b, `,"jobs_waiting":`, s.JobsWaiting)
	b = appendInt(b, `,"completions":`, s.Completions)
	b = appendInt(b, `,"deadline_misses":`, s.DeadlineMisses)
	b = appendInt(b, `,"cold_reads":`, s.ColdReads)
	b = appendInt(b, `,"unserved_reads":`, s.UnservedReads)
	b = appendInt(b, `,"node_failures":`, s.NodeFailures)
	b = appendInt(b, `,"evictions":`, s.Evictions)
	b = strconv.AppendBool(append(b, `,"coverage_ok":`...), s.CoverageOK)
	b = appendInt(b, `,"failed_nodes":`, s.FailedNodes)
	if len(s.FaultsActive) > 0 {
		b = append(b, `,"faults_active":[`...)
		for i, kind := range s.FaultsActive {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, kind)
		}
		b = append(b, ']')
	}
	// omitempty drops a zero float (either sign) and nothing else.
	if s.SupplyFaultWh != 0 {
		b = appendFloat(b, `,"supply_fault_wh":`, s.SupplyFaultWh, &err)
	}
	if s.BatteryFadeFactor != 0 {
		b = appendFloat(b, `,"battery_fade_factor":`, s.BatteryFadeFactor, &err)
	}
	if s.DegradedMode {
		b = append(b, `,"degraded_mode":true`...)
	}
	return append(b, '}'), err
}

// appendTotalsLine appends the JSONL totals line's object — RunTotals
// behind a leading "kind":"totals" member — as json.Marshal encodes it.
func appendTotalsLine(b []byte, t *RunTotals) ([]byte, error) {
	var err error
	b = append(b, `{"kind":"totals"`...)
	if t.Run != "" {
		b = appendStr(b, `,"run":`, t.Run)
	}
	b = appendStr(b, `,"policy":`, t.Policy)
	b = appendInt(b, `,"slots":`, t.Slots)
	b = appendFloat(b, `,"demand_wh":`, t.DemandWh, &err)
	b = appendFloat(b, `,"migration_wh":`, t.MigrationWh, &err)
	b = appendFloat(b, `,"transition_wh":`, t.TransitionWh, &err)
	b = appendFloat(b, `,"green_produced_wh":`, t.GreenProducedWh, &err)
	b = appendFloat(b, `,"green_direct_wh":`, t.GreenDirectWh, &err)
	b = appendFloat(b, `,"battery_out_wh":`, t.BatteryOutWh, &err)
	b = appendFloat(b, `,"brown_wh":`, t.BrownWh, &err)
	b = appendFloat(b, `,"battery_in_wh":`, t.BatteryInWh, &err)
	b = appendFloat(b, `,"green_lost_wh":`, t.GreenLostWh, &err)
	b = appendFloat(b, `,"battery_eff_loss_wh":`, t.BatteryEffLossWh, &err)
	b = appendFloat(b, `,"battery_self_loss_wh":`, t.BatterySelfLossWh, &err)
	b = appendInt(b, `,"submitted":`, t.Submitted)
	b = appendInt(b, `,"completed":`, t.Completed)
	b = appendInt(b, `,"deadline_misses":`, t.DeadlineMisses)
	return append(b, '}'), err
}
