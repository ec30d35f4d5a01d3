//go:build race

package golden

// Race is whether the race detector is on: whole-campaign goldens skip.
const Race = true
