package main

// The demo is deterministic, so its whole output is pinned.
func Example() {
	main()
	// Output:
	// Fault storm: fork/wait throughput vs PM fault-inflow interval
	// interval            ops   recoveries   ops/Mcycle
	// none                 80            0        25.85
	// 60000                80           79        14.64
	// 120000               80           31        19.77
	// 240000               80           13        22.96
	// 480000               80            6        24.43
	// 960000               80            3        25.08
	// 1920000              80            1        25.60
	//
	// Every run completed: the system degrades, it does not die.
}
