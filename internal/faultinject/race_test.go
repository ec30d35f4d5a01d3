//go:build race

package faultinject

// raceEnabled scales the wedge suite's campaign sizes down under the
// race detector, which slows the simulator's goroutine hand-offs ~15x.
const raceEnabled = true
