package lib

import "testing"

// A reference from a test file does not keep TestOnly alive.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}
