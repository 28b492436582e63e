package workload

// ArrivalHistogram counts job arrivals per hour of day, the shape the
// diurnal generator is calibrated against and the first thing to check
// when importing an external trace.
func (tr Trace) ArrivalHistogram() [24]int {
	var h [24]int
	for _, j := range tr {
		h[j.Submit%24]++
	}
	return h
}

// PeakConcurrency returns the maximum simultaneous job count under
// run-at-submit execution, a quick capacity-planning figure.
func (tr Trace) PeakConcurrency() int {
	horizon := 0
	for _, j := range tr {
		if end := j.Submit + j.Duration; end > horizon {
			horizon = end
		}
	}
	running := make([]int, horizon+1)
	for _, j := range tr {
		for t := j.Submit; t < j.Submit+j.Duration; t++ {
			running[t]++
		}
	}
	peak := 0
	for _, c := range running {
		if c > peak {
			peak = c
		}
	}
	return peak
}

// SlackHistogram buckets deferrable jobs by their initial slack in slots:
// [0], [1,4], [5,12], [13,24], [25,+inf). The mix of slack classes
// determines how much freedom a deferral policy actually has.
func (tr Trace) SlackHistogram() map[string]int {
	h := map[string]int{}
	for _, j := range tr {
		if !j.Class.Deferrable() {
			continue
		}
		slack := j.SlackAt(j.Submit, j.Duration)
		switch {
		case slack <= 0:
			h["0"]++
		case slack <= 4:
			h["1-4"]++
		case slack <= 12:
			h["5-12"]++
		case slack <= 24:
			h["13-24"]++
		default:
			h["25+"]++
		}
	}
	return h
}
