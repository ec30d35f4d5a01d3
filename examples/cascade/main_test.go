package main

// The demo is deterministic, so its whole output is pinned.
func Example() {
	main()
	// Output:
	// Scene 1: a fault inside the recovery path
	//   outcome:      completed
	//   recoveries:   1 (restart retried after the recovery-path crash)
	//   quarantines:  0
	//   crashed put:  errno=ECRASH (error virtualization)
	//   retried put:  errno=OK, journal="entry-2"
	//   The second fault hit while recovery was in progress; the
	//   sequencer escalated to a fresh restart instead of aborting
	//   the OS, and the service came back.
	//
	// Scene 2: crash storm escalates to quarantine
	//   outcome:     completed (degraded pass: userland kept running)
	//   quarantines: 1 [ds]
	//   ds errors:   [ECRASH ECRASH ECRASH ECRASH ECRASH ECRASH] (error virtualization after quarantine)
	//   vfs alive:   true
	//   The repeat offender was detached; every later request to it
	//   fails with ECRASH while the other servers keep working.
}
