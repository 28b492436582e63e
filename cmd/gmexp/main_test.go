package main

import (
	"math"
	"testing"
)

// TestBadScaleExitsTwo: a -scale that is not positive and finite is a
// usage error (exit 2), refused before any experiment runs.
func TestBadScaleExitsTwo(t *testing.T) {
	defer func(id0 string, scale0 float64) { *id, *scale = id0, scale0 }(*id, *scale)
	*id = "E1"
	for _, sc := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		*scale = sc
		if code := run(); code != 2 {
			t.Errorf("-scale %v: exit status %d, want 2", sc, code)
		}
	}
}
