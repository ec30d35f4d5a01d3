package faultinject

// Replayable fault traces: every interesting campaign run (failed,
// crashed, degraded, or audit-inconsistent) can be written as one
// self-contained JSON file: the run's kind, policy and transport options
// beside its run record (MultiRunResult), whose plan and per-run seed
// complete the provenance and whose other fields are what the run
// observed. Because every run is a pure function of its provenance,
// Replay re-executes the run bit-identically (cold boot and warm fork
// agree, so the replay path needs no snapshot plane) and the caller
// diffs the fresh record against the recorded one, field by field. A
// mismatch means the build's behaviour diverged from the recording —
// the non-reproducibility alarm the roadmap's consistency story relies
// on.

import (
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
const TraceFormat = "osiris-trace/v3"

// Trace kinds, which are also the journal header's kinds.
const (
	TraceSingle = "single"
	TraceMulti  = "multi"
)

// Trace is one self-contained replayable run record.
type Trace struct {
	Format string
	Kind   string
	Policy seep.Policy
	// IPC is the campaign's transport options as configured (Replay
	// turns the plane on exactly like the campaign did).
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
	// Run is the recorded run: its plan and per-run seed (replay inputs)
	// and everything it observed.
	Run MultiRunResult
}

// NewRunTrace records a run of kind TraceSingle or TraceMulti.
func NewRunTrace(kind string, policy seep.Policy, run MultiRunResult, ipc IPCOptions) Trace {
	return Trace{Format: TraceFormat, Kind: kind, Policy: policy, IPC: ipc, Run: run}
}

// NewTrace records a single-fault run.
func NewTrace(policy seep.Policy, rr RunResult, ipc IPCOptions) Trace {
	return NewRunTrace(TraceSingle, policy, rr.record(), ipc)
}

// check refuses a record no run of the kind produces, or one that would
// not write back as read: an outcome or a fault type without a name, or
// an injection count that does not fit the kind — a single-fault run
// arms exactly one plain injection, a multi-fault run at least one. The
// journal and the trace reader share it.
func (m MultiRunResult) check(kind string) error {
	if err := new(Outcome).UnmarshalText([]byte(m.Outcome.String())); err != nil {
		return err
	}
	for _, inj := range m.Injections {
		if _, err := inj.Type.MarshalText(); err != nil {
			return err
		}
	}
	switch kind {
	case TraceSingle:
		if len(m.Injections) != 1 || m.Injections[0] != (MultiInjection{Injection: m.Injections[0].Injection}) {
			return fmt.Errorf("faultinject: a single-fault run arms one plain injection, not %+v", m.Injections)
		}
	case TraceMulti:
		if len(m.Injections) == 0 {
			return fmt.Errorf("faultinject: a multi-fault run arms no injection")
		}
	default:
		return fmt.Errorf("faultinject: unknown run kind %q", kind)
	}
	return nil
}

// Replay re-executes the recorded run from its provenance and returns
// the fresh record. The caller compares it against t.Run (see Matches);
// campaign warm forks are bit-identical to the cold boots used here, so
// a well-formed trace replays exactly.
func (t Trace) Replay() (MultiRunResult, error) {
	if t.Format != TraceFormat {
		return MultiRunResult{}, fmt.Errorf("faultinject: unsupported trace format %q (want %q)", t.Format, TraceFormat)
	}
	if err := t.check(); err != nil {
		return MultiRunResult{}, err
	}
	return runCold(t.Policy, t.Run.Seed, t.spec()), nil
}

// spec is the run the trace records.
func (t Trace) spec() runSpec {
	kind := kindMulti
	if t.Kind == TraceSingle {
		kind = kindSingle
	}
	return runSpec{kind: kind, faults: t.Run.Injections, ipc: t.IPC}
}

// check refuses a trace whose run could not be replayed as recorded: a
// run record that fails its own check, fault rates the kernel refuses
// (a run with no plane would ignore them), and a configuration the
// replayed machine's core.Config.Validate refuses.
func (t Trace) check() error {
	if err := t.Run.check(t.Kind); err != nil {
		return err
	}
	if err := t.IPC.Faults.Validate(); err != nil {
		return err
	}
	return t.spec().class().config(t.Policy, t.Run.Seed).Validate()
}

// Matches reports whether a replayed record is bit-identical to the
// recorded one, and a human-readable diff naming each field that is not.
func (t Trace) Matches(replayed MultiRunResult) (bool, string) {
	if reflect.DeepEqual(t.Run, replayed) {
		return true, ""
	}
	var diffs []string
	rec, rep := reflect.ValueOf(t.Run), reflect.ValueOf(replayed)
	for i := 0; i < rec.NumField(); i++ {
		if a, b := rec.Field(i).Interface(), rep.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			diffs = append(diffs, fmt.Sprintf("%s: recorded %v, replayed %v", rec.Type().Field(i).Name, a, b))
		}
	}
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

// decodeTrace decodes one trace record. It refuses a format other than
// TraceFormat, fields the format does not have, what would not write
// back as read — a policy the record leaves out, or a run record that
// fails check — and a run Replay could not boot (Trace.check), and reads
// an empty list as the absent one WriteTraceFile writes.
func decodeTrace(data []byte) (Trace, error) {
	var head struct{ Format string }
	if err := json.Unmarshal(data, &head); err != nil {
		return Trace{}, err
	}
	if head.Format != TraceFormat {
		return Trace{}, fmt.Errorf("unsupported trace format %q (want %q)", head.Format, TraceFormat)
	}
	var t Trace
	if err := decodeStrict(data, &t); err != nil {
		return Trace{}, err
	}
	if _, err := seep.ParsePolicy(t.Policy.String()); err != nil {
		return Trace{}, err
	}
	if err := t.check(); err != nil {
		return Trace{}, err
	}
	if len(t.Run.Violations) == 0 {
		t.Run.Violations = nil
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
