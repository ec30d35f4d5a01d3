//go:build !race

package golden

const Race = false
