package main

// The demo is deterministic, so its whole output is pinned.
func Example() {
	main()
	// Output:
	// One fault, four policies: crash in DS after a put was applied
	// policy       outcome    put       get(doomed)    value           pre-crash key
	// stateless    completed  ECRASH    ENOENT         -               false
	// naive        completed  ECRASH    OK             half-applied    true
	// pessimistic  shutdown   n/a       n/a            -               false
	// enhanced     completed  ECRASH    ENOENT         -               true
	//
	// Reading the table:
	//   stateless   survives but loses everything, including the pre-crash key.
	//   naive       survives with the half-applied put visible although the
	//               caller was told it failed — silent inconsistency.
	//   pessimistic cannot prove recovery safe (DS's early event notification
	//               closed its window) and shuts down in a controlled way.
	//   enhanced    classifies that notification read-only, keeps the window
	//               open, rolls the put back and error-virtualizes it: the
	//               caller sees ECRASH on a fully consistent store.
}
