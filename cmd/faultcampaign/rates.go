package main

import "fmt"

// Basis-point rate flags are user input, and a typo'd rate silently
// warps a whole campaign (negative rates underflow the fate ladder,
// rates past 10000 make every roll hit). Validate them all up front
// and fail with the flag's name rather than a misbehaving run.

// bpFlag pairs a rate flag's name with its parsed value.
type bpFlag struct {
	name  string
	value int
}

// validateBP rejects a basis-point rate outside [0, 10000].
func validateBP(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s %d: rate is negative; basis points must be in [0, 10000]", name, v)
	}
	if v > 10000 {
		return fmt.Errorf("-%s %d: rate exceeds 10000 basis points (100%%); must be in [0, 10000]", name, v)
	}
	return nil
}

// validateBPFlags checks every rate flag, reporting the first offender
// by name.
func validateBPFlags(flags []bpFlag) error {
	for _, f := range flags {
		if err := validateBP(f.name, f.value); err != nil {
			return err
		}
	}
	return nil
}

// validateCount rejects a count flag below least. The campaign layer reads
// a count that is not positive as its default, so -samples 0 or -faults
// 0 would otherwise run another campaign than the one asked for, and a
// negative -ipctimeout would be recorded in traces no replay reads.
func validateCount[T int | int64](name string, v, least T) error {
	if v < least {
		return fmt.Errorf("-%s %d: must be at least %d", name, v, least)
	}
	return nil
}
