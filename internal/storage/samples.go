package storage

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// LatencySamples is a checkpointed latency sample: one value per read, so a
// long run's checkpoint carries tens of thousands of them. It decodes a
// flat array of JSON numbers directly, element by element, and hands any
// other input to encoding/json, so it accepts exactly the inputs a
// []float64 does and decodes them to the same values. It encodes as a
// plain []float64.
type LatencySamples []float64

// UnmarshalJSON implements json.Unmarshaler.
func (s *LatencySamples) UnmarshalJSON(b []byte) error {
	if v, ok := parseSamples(b); ok {
		*s = v
		return nil
	}
	return json.Unmarshal(b, (*[]float64)(s))
}

// parseSamples parses b when it is an array of JSON numbers, reporting
// false for anything else. An empty array yields a non-nil empty slice, as
// encoding/json does.
func parseSamples(b []byte) (LatencySamples, bool) {
	i := skipJSONSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipJSONSpace(b, i+1)
	out := make(LatencySamples, 0, bytes.Count(b, []byte{','})+1)
	if i < len(b) && b[i] == ']' {
		return out, skipJSONSpace(b, i+1) == len(b)
	}
	for {
		n := jsonNumberLen(b[i:])
		if n == 0 {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(b[i:i+n]), 64)
		if err != nil {
			return nil, false
		}
		out = append(out, v)
		if i = skipJSONSpace(b, i+n); i == len(b) {
			return nil, false
		}
		switch b[i] {
		case ',':
			i = skipJSONSpace(b, i+1)
		case ']':
			return out, skipJSONSpace(b, i+1) == len(b)
		default:
			return nil, false
		}
	}
}

// jsonNumberLen returns the length of the JSON number at the front of b,
// or 0 when b does not start with one: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
