// Package seep implements Side Effect Engraved Passages (SEEPs) and the
// recovery-window machinery built on them (paper §III-B, §IV-B).
//
// Every outbound inter-component call site in an OSIRIS server is
// declared as a Passage carrying a static side-effect Class. The active
// recovery Policy observes each passage a component sends through and
// decides whether the component's recovery window must close. While the
// window is open, the component's state changes are invisible to the
// rest of the system, so rolling back to the window's checkpoint is
// globally consistent by construction.
package seep

import (
	"fmt"

	"repro/internal/memlog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Class is the static side-effect classification engraved on a passage.
type Class int

const (
	// ClassReadOnly marks a request that does not modify the receiver's
	// state (a pure query). Under the enhanced policy these keep the
	// sender's recovery window open.
	ClassReadOnly Class = iota + 1
	// ClassMutating marks a request that modifies the receiver's state,
	// creating a cross-component dependency. Always closes the window.
	ClassMutating
	// ClassReply marks the reply to the in-flight request. Information
	// leaves the component, so the window closes; a fresh window opens
	// at the next top-of-loop checkpoint anyway.
	ClassReply
	// ClassNotify marks an asynchronous, non-state-carrying notification
	// (e.g. a heartbeat acknowledgement or an event ping). Read-only for
	// window purposes.
	ClassNotify
	// ClassRequesterLocal marks a request whose state changes in the
	// receiver are keyed entirely to the requesting process, so killing
	// the requester cleans them up (the extension proposed in the
	// paper's §VII "Extensibility"). Under PolicyExtended such passages
	// keep the window open, tainting it requester-local; reconciliation
	// then kills the requester instead of error-virtualizing.
	ClassRequesterLocal
)

// String returns the class name used in traces.
func (c Class) String() string {
	switch c {
	case ClassReadOnly:
		return "read-only"
	case ClassMutating:
		return "mutating"
	case ClassReply:
		return "reply"
	case ClassNotify:
		return "notify"
	case ClassRequesterLocal:
		return "requester-local"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// StateModifying reports whether a passage of this class exposes state
// changes to (or causes them in) another component. Requester-local
// passages do modify global state, but in a way a dedicated
// reconciliation action can clean up.
func (c Class) StateModifying() bool {
	return c == ClassMutating || c == ClassReply || c == ClassRequesterLocal
}

// Passage is one declared outbound call site: a SEEP. Servers declare
// these as package-level values, one per call site, mirroring the
// compile-time instrumentation of the original prototype.
type Passage struct {
	// Name identifies the call site in traces, e.g. "pm.fork->vm.fork".
	Name string
	// Class is the engraved side-effect classification.
	Class Class
}

// Policy selects the system-wide recovery strategy. Pessimistic and
// Enhanced are the paper's two window policies; Stateless and Naive are
// the baseline comparison strategies of §VI (no checkpointing at all).
type Policy int

const (
	// PolicyStateless restarts a crashed component from scratch with no
	// state transfer — the "microreboot" baseline.
	PolicyStateless Policy = iota + 1
	// PolicyNaive restarts a crashed component reusing its state exactly
	// as it was at the crash, with no rollback — best-effort recovery.
	PolicyNaive
	// PolicyPessimistic closes the recovery window on any outbound
	// message, regardless of class.
	PolicyPessimistic
	// PolicyEnhanced (the default) uses SEEP classes: only
	// state-modifying passages close the window.
	PolicyEnhanced
	// PolicyExtended is PolicyEnhanced plus the §VII extension: a
	// requester-local passage taints the window instead of closing it,
	// and reconciliation kills the requester to clean the dependent
	// state, further widening the recovery surface.
	PolicyExtended
)

// String returns the policy name as used in the paper's tables.
func (p Policy) String() string {
	switch p {
	case PolicyStateless:
		return "stateless"
	case PolicyNaive:
		return "naive"
	case PolicyPessimistic:
		return "pessimistic"
	case PolicyEnhanced:
		return "enhanced"
	case PolicyExtended:
		return "extended"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MarshalText renders the policy by name in JSON reports.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// ParsePolicy is the inverse of String: it maps a table name back to
// the policy, for replayable trace records and CLI flags.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{PolicyStateless, PolicyNaive, PolicyPessimistic, PolicyEnhanced, PolicyExtended} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("seep: unknown policy %q", name)
}

// UnmarshalText parses the policy by name, so JSON trace records
// round-trip.
func (p *Policy) UnmarshalText(text []byte) error {
	v, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Checkpointing reports whether the policy maintains checkpoints and
// recovery windows at all.
func (p Policy) Checkpointing() bool {
	return p == PolicyPessimistic || p == PolicyEnhanced || p == PolicyExtended
}

// ClosesWindow reports whether sending through a passage of class c
// closes the recovery window under this policy.
func (p Policy) ClosesWindow(c Class) bool {
	switch p {
	case PolicyPessimistic:
		return true
	case PolicyEnhanced:
		return c.StateModifying()
	case PolicyExtended:
		return c.StateModifying() && c != ClassRequesterLocal
	default:
		// Non-checkpointing policies have no window to close.
		return false
	}
}

// Instrumentation returns the memlog instrumentation mode matching the
// policy: baseline strategies carry no store instrumentation.
func (p Policy) Instrumentation() memlog.Instrumentation {
	if p.Checkpointing() {
		return memlog.Optimized
	}
	return memlog.Baseline
}

// Stats accumulates the recovery-coverage measurements of Table I for
// one component: how much execution happened inside open recovery
// windows versus outside.
type Stats struct {
	// BlocksIn and BlocksOut count executed basic-block proxies (fault
	// injection points) inside and outside open windows.
	BlocksIn, BlocksOut uint64
	// CyclesIn and CyclesOut accumulate virtual cycles likewise.
	CyclesIn, CyclesOut sim.Cycles
	// WindowsOpened counts checkpoints taken; WindowsClosed counts
	// in-request closures caused by a SEEP (not top-of-loop resets).
	WindowsOpened, WindowsClosed uint64
}

// Code lists the statistics' fields, for the on-disk image.
func (s *Stats) Code(c *wire.Codec) {
	c.Uvarint(&s.BlocksIn)
	c.Uvarint(&s.BlocksOut)
	wire.Uint(c, &s.CyclesIn)
	wire.Uint(c, &s.CyclesOut)
	c.Uvarint(&s.WindowsOpened)
	c.Uvarint(&s.WindowsClosed)
}

// BlockCoverage returns the fraction of basic blocks executed inside
// recovery windows, the paper's Table I metric. It returns 0 when no
// blocks were executed.
func (s Stats) BlockCoverage() float64 {
	total := s.BlocksIn + s.BlocksOut
	if total == 0 {
		return 0
	}
	return float64(s.BlocksIn) / float64(total)
}

// CycleCoverage returns the fraction of cycles spent inside recovery
// windows.
func (s Stats) CycleCoverage() float64 {
	total := s.CyclesIn + s.CyclesOut
	if total == 0 {
		return 0
	}
	return float64(s.CyclesIn) / float64(total)
}

// Window manages one component's recovery window. The kernel notifies it
// at the top of the request loop, on every outbound passage, and on
// cooperative-thread yields; it drives the component's memlog store.
type Window struct {
	policy Policy
	store  *memlog.Store

	open      bool
	replyable bool
	// requesterLocal marks that at least one requester-local passage
	// happened since the checkpoint: rollback alone is no longer
	// globally consistent, but rollback plus killing the requester is.
	requesterLocal bool

	stats Stats
}

// NewWindow returns a window manager for a component whose state lives
// in store, governed by policy.
func NewWindow(policy Policy, store *memlog.Store) *Window {
	return &Window{policy: policy, store: store}
}

// Policy reports the governing policy.
func (w *Window) Policy() Policy { return w.policy }

// Open reports whether the recovery window is currently open.
func (w *Window) Open() bool { return w.open }

// Replyable reports whether the in-flight request can be answered with
// an error reply during reconciliation (error virtualization).
func (w *Window) Replyable() bool { return w.replyable }

// RequesterLocalTaint reports whether the open window has absorbed
// requester-local side effects (PolicyExtended): consistent recovery
// then requires killing the requester.
func (w *Window) RequesterLocalTaint() bool { return w.requesterLocal }

// BeginRequest is called at the top of the request-processing loop when
// a new message is received: it takes a checkpoint and opens a new
// recovery window (under checkpointing policies). replyable records
// whether the incoming request admits an error reply.
func (w *Window) BeginRequest(replyable bool) {
	w.replyable = replyable
	if !w.policy.Checkpointing() {
		return
	}
	w.store.SetLogging(true)
	w.store.Checkpoint()
	w.open = true
	w.requesterLocal = false
	w.stats.WindowsOpened++
}

// EndRequest is called when the handler finishes, before blocking for
// the next message. The window conceptually ends; the undo log is
// discarded since the request completed.
func (w *Window) EndRequest() {
	if w.open {
		w.store.SetLogging(false)
		w.store.DiscardLog()
		w.open = false
	}
	w.replyable = false
}

// ObservePassage is invoked for every outbound SEEP the component sends
// through. If the active policy rules the class unsafe, the window
// closes: logging stops and the now-unrestorable undo log is dropped
// (the §IV-D optimisation).
func (w *Window) ObservePassage(p Passage) {
	if !w.open {
		return
	}
	if w.policy.ClosesWindow(p.Class) {
		w.close()
		return
	}
	if p.Class == ClassRequesterLocal && w.policy == PolicyExtended {
		w.requesterLocal = true
	}
}

// ForceClose closes the window unconditionally. Used when a cooperative
// thread yields (§IV-E): interleaving makes rollback unsafe.
func (w *Window) ForceClose() {
	if w.open {
		w.close()
	}
}

func (w *Window) close() {
	w.open = false
	w.store.SetLogging(false)
	w.store.DiscardLog()
	w.stats.WindowsClosed++
}

// AccountBlock records execution of one basic-block proxy under the
// current window state.
func (w *Window) AccountBlock() {
	if w.open {
		w.stats.BlocksIn++
	} else {
		w.stats.BlocksOut++
	}
}

// AccountCycles records n executed cycles under the current window state.
func (w *Window) AccountCycles(n sim.Cycles) {
	if w.open {
		w.stats.CyclesIn += n
	} else {
		w.stats.CyclesOut += n
	}
}

// Stats returns a copy of the accumulated coverage statistics.
func (w *Window) Stats() Stats { return w.stats }

// RestoreStats overwrites the accumulated statistics, used when a
// warm-forked component resumes from a snapshot taken at a quiescent
// point (window closed, no request in flight).
func (w *Window) RestoreStats(s Stats) { w.stats = s }
