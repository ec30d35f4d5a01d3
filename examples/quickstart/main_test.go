package main

// The demo is deterministic, so its whole output is pinned.
func Example() {
	main()
	// Output:
	// OSIRIS quickstart
	//   first fork:   ECRASH (error virtualization after PM crash)
	//   retried fork: OK, child pid 2
	//   state intact: true
	//   recoveries accounted by RS: 1
	//   outcome: completed after 106548 virtual cycles
}
