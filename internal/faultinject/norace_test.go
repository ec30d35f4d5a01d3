//go:build !race

package faultinject

const raceEnabled = false
