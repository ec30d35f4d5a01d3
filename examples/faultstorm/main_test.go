package main

import (
	"testing"

	"repro/internal/golden"
)

// The demo is deterministic, so its whole output is pinned.
func TestGolden(t *testing.T) {
	golden.Check(t, "examples/faultstorm.txt", golden.Stdout(t, main))
}
