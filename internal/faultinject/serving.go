package faultinject

// The serving decision: how the campaign pipeline served one run. It is
// one typed value produced beside the run's record (never inside it —
// records are bit-identical however a run is served, the decision is
// not) and handed to a campaign's OnResult with the record, with one
// rendering (String, the provenance string Trace.Serving stores) and one
// accumulator (PlaneStats.add).

import "strconv"

// Plane names the mechanism that served a run.
type Plane int

const (
	// PlaneCold: a full cold boot; Serving.Fallback says why the warm
	// plane could not serve the run.
	PlaneCold Plane = iota + 1
	// PlaneForked: forked from ladder rung Serving.Rung (0: the
	// post-install boot barrier) and executed to its end;
	// Serving.Fallback says why the tail was not elided.
	PlaneForked
	// PlaneElided: forked, and the tail spliced from the pathfinder's
	// suffix at the quiescence barrier Serving.At.
	PlaneElided
	// PlaneRejoined: as PlaneElided, onto a suffix an earlier armed run
	// contributed.
	PlaneRejoined
	// PlaneWedged: forked, and ended by a wedge certificate at virtual
	// cycle Serving.At.
	PlaneWedged
	// PlaneJournal: the result was served verbatim from a campaign
	// journal; no machine ran.
	PlaneJournal
)

// Serving is one run's serving decision.
type Serving struct {
	Plane Plane
	// Rung is the ladder rung the run forked from (0: the boot barrier);
	// unused by PlaneCold and PlaneJournal.
	Rung int
	// At is the suite index of the splice barrier (PlaneElided,
	// PlaneRejoined) or the virtual cycle of certification (PlaneWedged).
	At uint64
	// Fallback is one of the Fallback* constants for PlaneCold and one of
	// the ElideFallback* constants for PlaneForked.
	Fallback string
}

// String renders the decision as Trace.Serving stores it:
// "cold:<fallback>", "rung:<idx> full:<elision fallback>",
// "rung:<idx> elided:<barrier>", "rung:<idx> rejoined:<barrier>",
// "rung:<idx> wedged:<cycle>" or "journal".
func (s Serving) String() string {
	var tail string
	switch s.Plane {
	case PlaneCold:
		return "cold:" + s.Fallback
	case PlaneJournal:
		return "journal"
	case PlaneForked:
		tail = "full:" + s.Fallback
	case PlaneElided:
		tail = "elided:" + strconv.FormatUint(s.At, 10)
	case PlaneRejoined:
		tail = "rejoined:" + strconv.FormatUint(s.At, 10)
	case PlaneWedged:
		tail = "wedged:" + strconv.FormatUint(s.At, 10)
	default:
		return "Plane(" + strconv.Itoa(int(s.Plane)) + ")"
	}
	return "rung:" + strconv.Itoa(s.Rung) + " " + tail
}

// Fallback reasons: why a campaign run could not be served by the
// snapshot ladder and booted cold instead.
const (
	// FallbackColdBootPinned: cold boots forced via PlaneOptions.ColdBoot
	// (-coldboot) — the equivalence oracle.
	FallbackColdBootPinned = "coldboot-pinned"
	// FallbackBackgroundRates: the run's transport carries background
	// fault rates, which consume the per-run fault stream from cycle
	// zero; no shared prefix exists.
	FallbackBackgroundRates = "background-ipc-rates"
	// FallbackNoSnapshot: the pathfinder never reached a capturable
	// boot barrier for this configuration class.
	FallbackNoSnapshot = "capture-failed"
	// FallbackPreBarrier: the armed occurrence is consumed before the
	// post-install boot barrier, so even the boot-barrier fork is unsound.
	FallbackPreBarrier = "occurrence-within-boot"
	// FallbackForkFailed: materializing the fork failed.
	FallbackForkFailed = "fork-failed"
)

// Elision fallback reasons: why a warm-served run executed its suffix
// in full instead of splicing a recorded one. Each run is charged
// exactly one — the last blocker standing when it completed.
const (
	// ElideFallbackPinned: full execution forced via PlaneOptions.NoElide
	// (-noelide) — the bit-identity oracle.
	ElideFallbackPinned = "noelide-pinned"
	// ElideFallbackNoTail: the pathfinder walk never opened the suffix
	// table — it did not complete the suite, or its end-of-walk audit
	// found violations.
	ElideFallbackNoTail = "tail-unavailable"
	// ElideFallbackUntriggered: an armed fault could still fire in the
	// suffix at the last barrier the run reached (persistent faults land
	// here, and multi-fault plans one of whose faults never triggers).
	ElideFallbackUntriggered = "fault-untriggered"
	// ElideFallbackEndedEarly: the run ended — shut down, crashed or
	// completed — without reaching a barrier after its last fault fired,
	// so no gate was ever consulted with the faults behind it. A fault
	// that fires and takes the machine down inside the test it fired in
	// lands here.
	ElideFallbackEndedEarly = "ended-before-barrier"
	// ElideFallbackMismatch: no barrier state of the run was in the
	// suffix table — recovery left a semantic difference nobody had
	// executed from before (or the fingerprint failed).
	ElideFallbackMismatch = "fingerprint-mismatch"
	// ElideFallbackResidue: the machine was never elision-quiescent
	// after its faults (active quarantine, in-flight work at every
	// barrier) or an audit pass recorded a violation.
	ElideFallbackResidue = "state-residue"
	// ElideFallbackWedgeUnproven: the run burned its whole cycle budget —
	// it ended at the real limit without the wedge certificate ever
	// holding (a gate kept refusing, or the idle state never recurred).
	ElideFallbackWedgeUnproven = "wedge-unproven"
)

// PlaneStats reports how the warm plane served a campaign. Outcomes are
// bit-identical however runs are served. The fork and cold splits are a
// function of the plan: the ladder holds rungs in walk order and never
// evicts. Only the elision split may vary at workers > 1: which run
// publishes a suffix-table entry first, and which later run finds it
// already there, depends on the order runs finish in.
type PlaneStats struct {
	// LadderForks counts runs forked from a mid-suite rung (>= 1).
	LadderForks int
	// BootForks counts runs forked from the post-install boot barrier.
	BootForks int
	// ColdBoots counts runs that fell back to a full cold boot.
	ColdBoots int
	// Fallbacks breaks ColdBoots down by reason.
	Fallbacks map[string]int
	// Elided counts warm-served runs that ended at a quiescence barrier
	// by splicing a suffix-table entry instead of re-executing the
	// remaining suite suffix (see elide.go), whoever contributed it.
	Elided int
	// Rejoined counts the subset of Elided whose entry an earlier armed
	// run contributed rather than the pathfinder walk: the run did not
	// converge onto the fault-free trace, it landed on a state another
	// recovered run had already executed from.
	Rejoined int
	// ElisionFallbacks breaks warm-served, fully-executed runs down by
	// the elision fallback reason charged to each (the last blocker
	// standing when the run completed). Elided plus Wedged plus the sum
	// over ElisionFallbacks equals LadderForks plus BootForks: every warm
	// run elided its tail, was certified wedged, or is charged exactly
	// one reason.
	ElisionFallbacks map[string]int
	// Wedged counts warm-served runs ended by a wedge certificate: the
	// hang the cycle limit would have classified, proven after a few
	// heartbeat rounds instead of simulated to the limit (see elide.go).
	Wedged int
}

// Total returns the number of runs the plane served.
func (s PlaneStats) Total() int { return s.LadderForks + s.BootForks + s.ColdBoots }

// add accounts one run's serving decision. Journal-served runs never
// reached the plane and count nowhere.
func (s *PlaneStats) add(sv Serving) {
	switch sv.Plane {
	case PlaneCold:
		s.ColdBoots++
		if s.Fallbacks == nil {
			s.Fallbacks = make(map[string]int)
		}
		s.Fallbacks[sv.Fallback]++
		return
	case PlaneJournal:
		return
	}
	if sv.Rung > 0 {
		s.LadderForks++
	} else {
		s.BootForks++
	}
	switch sv.Plane {
	case PlaneRejoined:
		s.Rejoined++
		fallthrough
	case PlaneElided:
		s.Elided++
	case PlaneWedged:
		s.Wedged++
	default:
		if s.ElisionFallbacks == nil {
			s.ElisionFallbacks = make(map[string]int)
		}
		s.ElisionFallbacks[sv.Fallback]++
	}
}
