package main

// The demo is deterministic, so its whole output is pinned.
func Example() {
	main()
	// Output:
	// PM crash immediately after exec's requester-local SysReplace passage
	// policy     outcome    wait status  wait errno   recoveries  system usable after
	// enhanced   shutdown   n/a          n/a          0           no (controlled shutdown)
	// extended   completed  -1           OK           1           true
	//
	// The enhanced policy treats the image replacement as any other
	// state-modifying passage: the window is closed at the crash, so the only
	// safe action is a controlled shutdown. The extended policy knows the
	// passage's side effects are keyed to the requester alone; it rolls PM
	// back and kills the requester (the parent's wait sees status -1, like
	// any crashed child), and the system keeps running.
}
