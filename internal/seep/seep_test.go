package seep

import (
	"testing"
	"testing/quick"

	"repro/internal/memlog"
	"repro/internal/wire/wiretest"
)

func TestClassStateModifying(t *testing.T) {
	tests := []struct {
		class Class
		want  bool
	}{
		{ClassReadOnly, false},
		{ClassMutating, true},
		{ClassReply, true},
		{ClassNotify, false},
	}
	for _, tt := range tests {
		if got := tt.class.StateModifying(); got != tt.want {
			t.Errorf("%v.StateModifying() = %v, want %v", tt.class, got, tt.want)
		}
	}
}

func TestPolicyClosesWindow(t *testing.T) {
	tests := []struct {
		policy Policy
		class  Class
		want   bool
	}{
		{PolicyPessimistic, ClassReadOnly, true},
		{PolicyPessimistic, ClassMutating, true},
		{PolicyPessimistic, ClassNotify, true},
		{PolicyEnhanced, ClassReadOnly, false},
		{PolicyEnhanced, ClassNotify, false},
		{PolicyEnhanced, ClassMutating, true},
		{PolicyEnhanced, ClassReply, true},
		{PolicyStateless, ClassMutating, false},
		{PolicyNaive, ClassMutating, false},
	}
	for _, tt := range tests {
		if got := tt.policy.ClosesWindow(tt.class); got != tt.want {
			t.Errorf("%v.ClosesWindow(%v) = %v, want %v", tt.policy, tt.class, got, tt.want)
		}
	}
}

func TestPolicyCheckpointing(t *testing.T) {
	if PolicyStateless.Checkpointing() || PolicyNaive.Checkpointing() {
		t.Fatal("baseline policies must not checkpoint")
	}
	if !PolicyPessimistic.Checkpointing() || !PolicyEnhanced.Checkpointing() {
		t.Fatal("window policies must checkpoint")
	}
}

func TestPolicyInstrumentation(t *testing.T) {
	if got := PolicyEnhanced.Instrumentation(); got != memlog.Optimized {
		t.Fatalf("enhanced instrumentation = %v, want Optimized", got)
	}
	if got := PolicyStateless.Instrumentation(); got != memlog.Baseline {
		t.Fatalf("stateless instrumentation = %v, want Baseline", got)
	}
}

func TestStrings(t *testing.T) {
	if PolicyEnhanced.String() != "enhanced" || PolicyPessimistic.String() != "pessimistic" ||
		PolicyStateless.String() != "stateless" || PolicyNaive.String() != "naive" {
		t.Fatal("policy names do not match the paper's table labels")
	}
	if ClassReadOnly.String() != "read-only" || ClassMutating.String() != "mutating" {
		t.Fatal("class names wrong")
	}
}

func newWindow(p Policy) (*Window, *memlog.Store, *memlog.Cell[int]) {
	store := memlog.NewStore("test", p.Instrumentation())
	cell := memlog.NewCell(store, "x", 0)
	return NewWindow(p, store), store, cell
}

func TestWindowLifecycleEnhanced(t *testing.T) {
	w, store, cell := newWindow(PolicyEnhanced)

	w.BeginRequest(true)
	if !w.Open() || !w.Replyable() {
		t.Fatal("window did not open on BeginRequest")
	}
	cell.Set(1)
	if store.LogLen() != 1 {
		t.Fatal("store not logging while window open")
	}

	// Read-only passage keeps the window open under enhanced policy.
	w.ObservePassage(Passage{Name: "q", Class: ClassReadOnly})
	if !w.Open() {
		t.Fatal("enhanced window closed on read-only passage")
	}

	// Mutating passage closes it and discards the log.
	w.ObservePassage(Passage{Name: "m", Class: ClassMutating})
	if w.Open() {
		t.Fatal("enhanced window still open after mutating passage")
	}
	if store.LogLen() != 0 {
		t.Fatal("undo log not discarded on window close")
	}
	cell.Set(2)
	if store.LogLen() != 0 {
		t.Fatal("store still logging after window close")
	}
}

func TestWindowLifecyclePessimistic(t *testing.T) {
	w, _, _ := newWindow(PolicyPessimistic)
	w.BeginRequest(true)
	w.ObservePassage(Passage{Name: "q", Class: ClassReadOnly})
	if w.Open() {
		t.Fatal("pessimistic window survived a read-only passage")
	}
}

func TestWindowStatelessNeverOpens(t *testing.T) {
	w, store, cell := newWindow(PolicyStateless)
	w.BeginRequest(true)
	if w.Open() {
		t.Fatal("stateless policy opened a window")
	}
	cell.Set(1)
	if store.LogLen() != 0 {
		t.Fatal("stateless policy logged a store")
	}
}

func TestWindowEndRequest(t *testing.T) {
	w, store, cell := newWindow(PolicyEnhanced)
	w.BeginRequest(true)
	cell.Set(1)
	w.EndRequest()
	if w.Open() || w.Replyable() {
		t.Fatal("EndRequest did not reset window state")
	}
	if store.LogLen() != 0 {
		t.Fatal("EndRequest did not discard the log")
	}
}

func TestWindowForceClose(t *testing.T) {
	w, _, _ := newWindow(PolicyEnhanced)
	w.BeginRequest(false)
	w.ForceClose()
	if w.Open() {
		t.Fatal("ForceClose left the window open")
	}
	stats := w.Stats()
	if stats.WindowsClosed != 1 {
		t.Fatalf("WindowsClosed = %d, want 1", stats.WindowsClosed)
	}
}

func TestWindowObservePassageWhenClosedIsNoop(t *testing.T) {
	w, _, _ := newWindow(PolicyEnhanced)
	w.ObservePassage(Passage{Name: "m", Class: ClassMutating})
	if got := w.Stats().WindowsClosed; got != 0 {
		t.Fatalf("closed-window passage recorded a closure: %d", got)
	}
}

func TestCoverageAccounting(t *testing.T) {
	w, _, _ := newWindow(PolicyEnhanced)
	w.BeginRequest(true)
	w.AccountBlock()
	w.AccountBlock()
	w.AccountCycles(100)
	w.ObservePassage(Passage{Name: "m", Class: ClassMutating})
	w.AccountBlock()
	w.AccountCycles(50)

	stats := w.Stats()
	if stats.BlocksIn != 2 || stats.BlocksOut != 1 {
		t.Fatalf("blocks in/out = %d/%d, want 2/1", stats.BlocksIn, stats.BlocksOut)
	}
	if got := stats.BlockCoverage(); got < 0.66 || got > 0.67 {
		t.Fatalf("BlockCoverage() = %v, want 2/3", got)
	}
	if stats.CyclesIn != 100 || stats.CyclesOut != 50 {
		t.Fatalf("cycles in/out = %d/%d, want 100/50", stats.CyclesIn, stats.CyclesOut)
	}
	if got := stats.CycleCoverage(); got < 0.66 || got > 0.67 {
		t.Fatalf("CycleCoverage() = %v, want 2/3", got)
	}
}

func TestCoverageZeroTotal(t *testing.T) {
	var s Stats
	if s.BlockCoverage() != 0 || s.CycleCoverage() != 0 {
		t.Fatal("coverage of empty stats must be 0")
	}
}

// TestExtendedPolicySemantics covers the §VII extension class.
func TestExtendedPolicySemantics(t *testing.T) {
	if !ClassRequesterLocal.StateModifying() {
		t.Fatal("requester-local passages do modify global state")
	}
	if PolicyEnhanced.ClosesWindow(ClassRequesterLocal) != true {
		t.Fatal("enhanced must close on requester-local (no reconciliation for it)")
	}
	if PolicyExtended.ClosesWindow(ClassRequesterLocal) {
		t.Fatal("extended must keep the window open on requester-local")
	}
	if PolicyExtended.ClosesWindow(ClassMutating) != true {
		t.Fatal("extended must still close on mutating")
	}
	if !PolicyExtended.Checkpointing() {
		t.Fatal("extended is a checkpointing policy")
	}
	if PolicyExtended.String() != "extended" {
		t.Fatal("extended name wrong")
	}

	w, store, _ := newWindow(PolicyExtended)
	w.BeginRequest(true)
	if w.RequesterLocalTaint() {
		t.Fatal("fresh window tainted")
	}
	w.ObservePassage(Passage{Name: "p", Class: ClassRequesterLocal})
	if !w.Open() || !w.RequesterLocalTaint() {
		t.Fatalf("after requester-local: open=%v taint=%v", w.Open(), w.RequesterLocalTaint())
	}
	if store.LogLen() != 0 {
		// no stores yet, just checking the log is intact
		t.Fatal("unexpected log entries")
	}
	// A later mutating passage still closes.
	w.ObservePassage(Passage{Name: "m", Class: ClassMutating})
	if w.Open() {
		t.Fatal("mutating passage did not close the extended window")
	}
	// The taint resets at the next request.
	w.BeginRequest(true)
	if w.RequesterLocalTaint() {
		t.Fatal("taint survived BeginRequest")
	}
}

// TestPropertyExtendedWindowContainsEnhanced: extended recovery windows
// are a superset of enhanced windows for any passage sequence.
func TestPropertyExtendedWindowContainsEnhanced(t *testing.T) {
	classes := []Class{ClassReadOnly, ClassMutating, ClassReply, ClassNotify, ClassRequesterLocal}
	f := func(choices []uint8) bool {
		wx, _, _ := newWindow(PolicyExtended)
		we, _, _ := newWindow(PolicyEnhanced)
		wx.BeginRequest(true)
		we.BeginRequest(true)
		for _, choice := range choices {
			p := Passage{Name: "p", Class: classes[int(choice)%len(classes)]}
			wx.ObservePassage(p)
			we.ObservePassage(p)
			if we.Open() && !wx.Open() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEnhancedWindowContainsPessimistic: for any sequence of
// passage classes, whenever the enhanced window is closed after a prefix
// of observations, the pessimistic window is closed too (enhanced's
// recovery surface is a superset — the paper's central trade-off).
func TestPropertyEnhancedWindowContainsPessimistic(t *testing.T) {
	classes := []Class{ClassReadOnly, ClassMutating, ClassReply, ClassNotify}
	f := func(choices []uint8) bool {
		we, _, _ := newWindow(PolicyEnhanced)
		wp, _, _ := newWindow(PolicyPessimistic)
		we.BeginRequest(true)
		wp.BeginRequest(true)
		for _, choice := range choices {
			class := classes[int(choice)%len(classes)]
			p := Passage{Name: "p", Class: class}
			we.ObservePassage(p)
			wp.ObservePassage(p)
			if wp.Open() && !we.Open() {
				return false // pessimistic open but enhanced closed: violation
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Stats' field list against the reflective walk of its declaration.
func TestStatsFieldList(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[Stats])
}
