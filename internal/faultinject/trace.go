package faultinject

// Replayable fault traces: every interesting campaign run (failed,
// crashed, degraded, or audit-inconsistent) can be written as one
// self-contained JSON record carrying its full provenance — policy,
// fault plan, per-run seed, transport options — plus the recorded
// outcome. Because every run is a pure function of that provenance,
// Replay re-executes the run bit-identically (cold boot and warm fork
// agree, so the replay path needs no snapshot plane) and the caller
// diffs the fresh outcome against the recorded one. A mismatch means
// the build's behaviour diverged from the recording — the
// non-reproducibility alarm the roadmap's consistency story relies on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/seep"
)

// TraceFormat identifies the trace schema; bump on incompatible
// change.
const TraceFormat = "osiris-trace/v1"

// Trace kinds.
const (
	TraceSingle = "single"
	TraceMulti  = "multi"
)

// TraceOutcome is the recorded (and replayed) observable result of one
// run. Recoveries and Quarantines are only populated for multi-fault
// runs (single-fault campaigns pin the sequencer off).
type TraceOutcome struct {
	Outcome     Outcome
	Triggered   int
	TestsFailed int
	Recoveries  int
	Quarantines int
	Reason      string
	Consistent  bool
	Violations  []string `json:",omitempty"`
}

// Trace is one self-contained replayable run record.
type Trace struct {
	Format string
	Kind   string
	Policy seep.Policy
	// Seed is the per-run seed (not the campaign seed).
	Seed uint64
	// Injection is the planned fault of a single-fault run; Injections
	// the plan of a multi-fault run.
	Injection  *Injection       `json:",omitempty"`
	Injections []MultiInjection `json:",omitempty"`
	// IPC is the campaign's transport options as configured (before
	// per-run normalization — Replay re-normalizes exactly like the
	// campaign did).
	IPC IPCOptions
	// Serving optionally records how the campaign served this run: the
	// ladder rung it forked from plus the elision decision ("rung:17
	// elided:33" for a splice of the pathfinder's suffix, "rung:17
	// rejoined:33" for one an earlier armed run contributed, "rung:4
	// full:fingerprint-mismatch"), a certified hang
	// with the cycle of certification ("rung:8 wedged:3608830"), or a
	// cold-boot fallback ("cold:occurrence-within-boot"). Replay always
	// cold-boots and runs every cycle — bit-identical by the warm-fork,
	// elision and wedge-certificate equivalences — so
	// Serving is provenance for the report, not a replay input, and
	// Matches ignores it.
	Serving string `json:",omitempty"`
	Outcome TraceOutcome
}

// NewTrace records a single-fault run.
func NewTrace(policy seep.Policy, rr RunResult, ipc IPCOptions) Trace {
	inj := rr.Injection
	return Trace{
		Format:    TraceFormat,
		Kind:      TraceSingle,
		Policy:    policy,
		Seed:      rr.Seed,
		Injection: &inj,
		IPC:       ipc,
		Outcome: TraceOutcome{
			Outcome:     rr.Outcome,
			Triggered:   boolToInt(rr.Triggered),
			TestsFailed: rr.TestsFailed,
			Reason:      rr.Reason,
			Consistent:  rr.Consistent,
			Violations:  rr.Violations,
		},
	}
}

// NewMultiTrace records a multi-fault run.
func NewMultiTrace(policy seep.Policy, rr MultiRunResult, ipc IPCOptions) Trace {
	return Trace{
		Format:     TraceFormat,
		Kind:       TraceMulti,
		Policy:     policy,
		Seed:       rr.Seed,
		Injections: rr.Injections,
		IPC:        ipc,
		Outcome: TraceOutcome{
			Outcome:     rr.Outcome,
			Triggered:   rr.Triggered,
			TestsFailed: rr.TestsFailed,
			Recoveries:  rr.Recoveries,
			Quarantines: rr.Quarantines,
			Reason:      rr.Reason,
			Consistent:  rr.Consistent,
			Violations:  rr.Violations,
		},
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Replay re-executes the recorded run from its provenance and returns
// the fresh outcome. The caller compares it against t.Outcome (see
// Matches); campaign warm forks are bit-identical to the cold boots
// used here, so a well-formed trace replays exactly.
func (t Trace) Replay() (TraceOutcome, error) {
	if t.Format != TraceFormat {
		return TraceOutcome{}, fmt.Errorf("faultinject: unsupported trace format %q (want %q)", t.Format, TraceFormat)
	}
	switch t.Kind {
	case TraceSingle:
		if t.Injection == nil {
			return TraceOutcome{}, fmt.Errorf("faultinject: single trace has no injection")
		}
		rr := RunOneWith(t.Policy, t.Seed, *t.Injection, t.IPC)
		return NewTrace(t.Policy, rr, t.IPC).Outcome, nil
	case TraceMulti:
		if len(t.Injections) == 0 {
			return TraceOutcome{}, fmt.Errorf("faultinject: multi trace has no injections")
		}
		rr := RunMultiWith(t.Policy, t.Seed, t.Injections, t.IPC)
		return NewMultiTrace(t.Policy, rr, t.IPC).Outcome, nil
	default:
		return TraceOutcome{}, fmt.Errorf("faultinject: unknown trace kind %q", t.Kind)
	}
}

// Matches reports whether a replayed outcome is bit-identical to the
// recorded one, and a human-readable diff when it is not.
func (t Trace) Matches(replayed TraceOutcome) (bool, string) {
	if reflect.DeepEqual(t.Outcome, replayed) {
		return true, ""
	}
	var diffs []string
	add := func(field string, rec, rep any) {
		if !reflect.DeepEqual(rec, rep) {
			diffs = append(diffs, fmt.Sprintf("%s: recorded %v, replayed %v", field, rec, rep))
		}
	}
	add("outcome", t.Outcome.Outcome, replayed.Outcome)
	add("triggered", t.Outcome.Triggered, replayed.Triggered)
	add("tests-failed", t.Outcome.TestsFailed, replayed.TestsFailed)
	add("recoveries", t.Outcome.Recoveries, replayed.Recoveries)
	add("quarantines", t.Outcome.Quarantines, replayed.Quarantines)
	add("reason", t.Outcome.Reason, replayed.Reason)
	add("consistent", t.Outcome.Consistent, replayed.Consistent)
	add("violations", t.Outcome.Violations, replayed.Violations)
	return false, strings.Join(diffs, "; ")
}

// WriteTraceFile writes the trace as indented JSON (atomically: temp
// file + rename).
func WriteTraceFile(path string, t Trace) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadTraceFile reads one trace record.
func ReadTraceFile(path string) (Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Trace{}, err
	}
	t, err := decodeTrace(data)
	if err != nil {
		return Trace{}, fmt.Errorf("faultinject: %s: %w", path, err)
	}
	return t, nil
}

// decodeTrace decodes one trace record. It refuses what would not write
// back as read — a policy, outcome or fault type the record leaves out,
// whose zero value has no name — and reads an empty list as the absent
// one WriteTraceFile writes.
func decodeTrace(data []byte) (Trace, error) {
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Trace{}, err
	}
	if t.Format != TraceFormat {
		return Trace{}, fmt.Errorf("unsupported trace format %q", t.Format)
	}
	if _, err := seep.ParsePolicy(t.Policy.String()); err != nil {
		return Trace{}, err
	}
	if err := new(Outcome).UnmarshalText([]byte(t.Outcome.Outcome.String())); err != nil {
		return Trace{}, err
	}
	if t.Injection != nil {
		if _, err := t.Injection.Type.MarshalText(); err != nil {
			return Trace{}, err
		}
	}
	for _, inj := range t.Injections {
		if _, err := inj.Type.MarshalText(); err != nil {
			return Trace{}, err
		}
	}
	if len(t.Injections) == 0 {
		t.Injections = nil
	}
	if len(t.Outcome.Violations) == 0 {
		t.Outcome.Violations = nil
	}
	return t, nil
}

// TraceFileName is the campaign convention for recorded runs:
// trace-<policy>-<plan index>.json.
func TraceFileName(policy seep.Policy, index int) string {
	return fmt.Sprintf("trace-%s-%04d.json", policy, index)
}

// ListTraceFiles returns the trace files under path: the file itself,
// or every *.json inside it when it is a directory (sorted, so replay
// order is deterministic).
func ListTraceFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("faultinject: no *.json trace files in %s", path)
	}
	sort.Strings(matches)
	return matches, nil
}
