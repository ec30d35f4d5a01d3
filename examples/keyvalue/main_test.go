package main

import "testing"

// The example's contract, checked on its own run: no record is lost or
// corrupted, and every record was either committed or aborted (an
// aborted put is one the consumer finds absent). The Data Store is
// recovered several times meanwhile, each time from a clone of its store
// that rolls back the crashed request.
func TestContractHoldsAcrossRecoveries(t *testing.T) {
	got, err := simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.wrong != 0 {
		t.Errorf("%d records lost or corrupted", got.wrong)
	}
	if got.committed+got.aborted != records {
		t.Errorf("%d committed and %d aborted of %d records: want every record one or the other", got.committed, got.aborted, records)
	}
	if got.recoveries == 0 {
		t.Error("no recoveries happened")
	}
}
