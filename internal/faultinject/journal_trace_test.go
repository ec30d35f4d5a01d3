package faultinject

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/seep"
)

// journalTestHeader is the campaign identity used by the unit tests.
func journalTestHeader() JournalHeader {
	return JournalHeader{
		Kind: TraceSingle, Policy: seep.PolicyEnhanced, Model: FailStop,
		Seed: 7, SamplesPerSite: 1, MaxRuns: 6, PlanFingerprint: 12345,
	}
}

func sampleRunResult(i int) RunResult {
	return RunResult{
		Injection:  Injection{Server: "pm", Site: "s", Occurrence: i + 1, Type: FaultCrash},
		Outcome:    OutcomePass,
		Triggered:  true,
		Seed:       7 + uint64(i)*7919,
		Consistent: true,
	}
}

// TestJournalRoundTrip: entries written before Close are all recovered
// on reopen, with their exact contents.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, resumed, err := OpenJournal(path, journalTestHeader())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("fresh journal resumed %d entries", resumed)
	}
	want := make(map[int]RunResult)
	for i := 0; i < 40; i++ { // crosses the fsync batch boundary
		rr := sampleRunResult(i)
		if i%3 == 0 {
			rr.Outcome = OutcomeCrash
			rr.Consistent = false
			rr.Violations = []string{"vfs: dangling inode"}
		}
		j.RecordRun(i, rr)
		want[i] = rr
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, resumed, err := OpenJournal(path, journalTestHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if resumed != len(want) {
		t.Fatalf("resumed %d entries, want %d", resumed, len(want))
	}
	for i, rr := range want {
		got, ok := j2.LookupRun(i)
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if !reflect.DeepEqual(got, rr) {
			t.Fatalf("entry %d changed across reopen:\nwrote %+v\nread  %+v", i, rr, got)
		}
	}
}

// TestJournalTornAndCorruptTails: a journal killed mid-write (short
// tail), with a corrupted tail entry, or with trailing garbage reopens
// cleanly with only the intact prefix — degrade, never crash.
func TestJournalTornAndCorruptTails(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base")
	j, _, err := OpenJournal(base, journalTestHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		j.RecordRun(i, sampleRunResult(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, wantResumed int) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, resumed, err := OpenJournal(path, journalTestHeader())
		if err != nil {
			t.Fatalf("%s: reopen failed: %v", name, err)
		}
		if resumed != wantResumed {
			t.Fatalf("%s: resumed %d entries, want %d", name, resumed, wantResumed)
		}
		// The journal must accept appends after tail repair.
		j.RecordRun(99, sampleRunResult(99))
		if err := j.Close(); err != nil {
			t.Fatalf("%s: close after repair: %v", name, err)
		}
		if _, resumed, err = OpenJournal(path, journalTestHeader()); err != nil || resumed != wantResumed+1 {
			t.Fatalf("%s: after repair+append: resumed %d, err %v", name, resumed, err)
		}
	}

	// Torn final write: the file ends mid-record.
	check("torn", clean[:len(clean)-7], 5)
	// Bit flip inside the last record's payload: checksum catches it.
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-3] ^= 0x10
	check("corrupt", flipped, 5)
	// Garbage appended after the last intact record.
	check("garbage", append(append([]byte(nil), clean...), 0xde, 0xad, 0xbe, 0xef), 6)
	// Garbage that parses as a huge length prefix.
	check("hugelen", append(append([]byte(nil), clean...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4), 6)
}

// TestJournalRefusesForeignCampaign: a journal opened with a different
// campaign identity (any header field) must be refused, not spliced.
func TestJournalRefusesForeignCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, journalTestHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.RecordRun(0, sampleRunResult(0))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*JournalHeader){
		"policy":      func(h *JournalHeader) { h.Policy = seep.PolicyNaive },
		"model":       func(h *JournalHeader) { h.Model = FullEDFI },
		"seed":        func(h *JournalHeader) { h.Seed++ },
		"fingerprint": func(h *JournalHeader) { h.PlanFingerprint++ },
		"kind":        func(h *JournalHeader) { h.Kind = TraceMulti },
		"ipc":         func(h *JournalHeader) { h.IPC.TimeoutCycles = 1 },
	} {
		hdr := journalTestHeader()
		mutate(&hdr)
		if _, _, err := OpenJournal(path, hdr); err == nil {
			t.Errorf("journal accepted a campaign with different %s", name)
		}
	}

	// A non-journal file is refused too.
	bogus := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(bogus, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(bogus, journalTestHeader()); err == nil {
		t.Error("journal accepted a non-journal file")
	}
}

// TestTraceRecordReplay: traces built from real runs replay
// bit-identically, and survive the JSON file round trip.
func TestTraceRecordReplay(t *testing.T) {
	inj := Injection{Server: "pm", Site: "pm.getpid", Occurrence: 3, Type: FaultCrash}
	rr := RunOne(seep.PolicyEnhanced, 7, inj)
	tr := NewTrace(seep.PolicyEnhanced, rr, IPCOptions{})

	path := filepath.Join(t.TempDir(), "t.json")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, loaded) {
		t.Fatalf("trace changed across JSON round trip:\nwrote %+v\nread  %+v", tr, loaded)
	}

	replayed, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := loaded.Matches(replayed); !ok {
		t.Fatalf("single trace did not replay bit-identically: %s", diff)
	}

	// Multi-fault trace, including a persistent fault that quarantines.
	injs := []MultiInjection{
		{Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 2, Type: FaultCrash}},
		{Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 4, Type: FaultCrash}, Persistent: true},
	}
	mrr := RunMulti(seep.PolicyEnhanced, 11, injs)
	mtr := NewMultiTrace(seep.PolicyEnhanced, mrr, IPCOptions{})
	if err := WriteTraceFile(path, mtr); err != nil {
		t.Fatal(err)
	}
	mloaded, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mtr, mloaded) {
		t.Fatalf("multi trace changed across JSON round trip")
	}
	mreplayed, err := mloaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := mloaded.Matches(mreplayed); !ok {
		t.Fatalf("multi trace did not replay bit-identically: %s", diff)
	}

	// A tampered recording must be detected as a mismatch.
	bad := loaded
	bad.Outcome.TestsFailed++
	if ok, _ := bad.Matches(replayed); ok {
		t.Fatal("tampered trace still matched its replay")
	}
}

// TestCampaignOnResultSeesJournaledRuns: OnResult observes every run in
// plan order, whether executed or served from the journal — so -record
// emits a complete trace set even on a resumed campaign.
func TestCampaignOnResultSeesJournaledRuns(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FullEDFI,
		Seed: 7, SamplesPerSite: 1, MaxRuns: 8, Workers: 2,
	}
	hdr := JournalHeader{
		Kind: TraceSingle, Policy: cfg.Policy, Model: cfg.Model, Seed: cfg.Seed,
		SamplesPerSite: cfg.SamplesPerSite, MaxRuns: cfg.MaxRuns, IPC: cfg.IPC,
		PlanFingerprint: PlanFingerprint(PlanCampaign(cfg, profile)),
	}
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := cfg
	jcfg.Journal = j
	RunCampaign(jcfg, profile)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, resumed, err := OpenJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != cfg.MaxRuns {
		t.Fatalf("resumed %d, want the full %d", resumed, cfg.MaxRuns)
	}
	var seen []int
	rcfg := cfg
	rcfg.Journal = j
	rcfg.OnResult = func(i int, rr RunResult) {
		seen = append(seen, i)
		if rr.Seed != cfg.Seed+uint64(i)*7919 {
			t.Errorf("run %d: journal-served seed %d does not match plan seed", i, rr.Seed)
		}
	}
	RunCampaign(rcfg, profile)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.MaxRuns {
		t.Fatalf("OnResult saw %d runs, want %d", len(seen), cfg.MaxRuns)
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnResult order: got %v, want plan order", seen)
		}
	}
}

// journalImage is a journal file holding hdr and entries, built in
// memory exactly as OpenJournal and RecordRun write one.
func journalImage(t testing.TB, hdr JournalHeader, entries ...journalEntry) []byte {
	t.Helper()
	out := []byte(JournalMagic)
	payload, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, frameRecord(payload)...)
	for _, e := range entries {
		if payload, err = json.Marshal(e); err != nil {
			t.Fatal(err)
		}
		out = append(out, frameRecord(payload)...)
	}
	return out
}

func singleEntry(i int) journalEntry {
	rr := sampleRunResult(i)
	return journalEntry{Index: i, Single: &rr}
}

func multiEntry(i int) journalEntry {
	return journalEntry{Index: i, Multi: &MultiRunResult{Outcome: OutcomePass, Seed: uint64(i)}}
}

// TestJournalRefusesEntriesNoLookupReads: an entry with a negative index,
// or of the other campaign kind, passes its checksum but no lookup ever
// returns it. Kept, it inflated Resumed — faultcampaign's "resuming N
// runs" — so it is the corrupt tail, and everything after it goes.
func TestJournalRefusesEntriesNoLookupReads(t *testing.T) {
	multiHdr := journalTestHeader()
	multiHdr.Kind = TraceMulti
	negative := singleEntry(2)
	negative.Index = -1
	for name, c := range map[string]struct {
		hdr     JournalHeader
		entries []journalEntry
		want    int
	}{
		"negative index":                  {journalTestHeader(), []journalEntry{singleEntry(0), singleEntry(1), negative, singleEntry(3)}, 2},
		"multi entry in a single journal": {journalTestHeader(), []journalEntry{singleEntry(0), multiEntry(1), singleEntry(2)}, 1},
		"single entry in a multi journal": {multiHdr, []journalEntry{multiEntry(0), multiEntry(1), singleEntry(2), multiEntry(3)}, 2},
	} {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, journalImage(t, c.hdr, c.entries...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, resumed, err := OpenJournal(path, c.hdr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j.Close()
		if resumed != c.want {
			t.Errorf("%s: resumed %d entries, want %d", name, resumed, c.want)
		}
	}
}

// FuzzScanJournal: any byte string scans as a journal or as an error,
// never a panic; the intact prefix lies within the input, holds only
// entries a lookup can return, and scans again to the same entries.
func FuzzScanJournal(f *testing.F) {
	hdr := journalTestHeader()
	var entries []journalEntry
	for i := 0; i < 6; i++ {
		entries = append(entries, singleEntry(i))
	}
	clean := journalImage(f, hdr, entries...)
	// TestJournalTornAndCorruptTails's shapes, and the entries no lookup
	// reads.
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-3] ^= 0x10
	negative := singleEntry(6)
	negative.Index = -1
	for _, seed := range [][]byte{
		clean,
		clean[:len(clean)-7],
		flipped,
		append(append([]byte(nil), clean...), 0xde, 0xad, 0xbe, 0xef),
		append(append([]byte(nil), clean...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4),
		journalImage(f, hdr, append(entries, negative)...),
		journalImage(f, hdr, append(entries, multiEntry(6))...),
		[]byte(JournalMagic),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, goodLen, err := scanJournal(data, hdr)
		if err != nil {
			return
		}
		if goodLen > int64(len(data)) {
			t.Fatalf("intact prefix %d bytes of %d", goodLen, len(data))
		}
		for i, e := range got {
			if i != e.Index || i < 0 || e.Single == nil || e.Multi != nil {
				t.Fatalf("kept entry %d no lookup reads: %+v", i, e)
			}
		}
		again, againLen, err := scanJournal(data[:goodLen], hdr)
		if err != nil || againLen != goodLen || !reflect.DeepEqual(got, again) {
			t.Fatalf("the intact prefix rescans differently: %d → %d bytes, %d → %d entries, %v", goodLen, againLen, len(got), len(again), err)
		}
	})
}

// FuzzReadTrace: a trace ReadTraceFile's decode accepts marshals and
// decodes again to an equal value.
func FuzzReadTrace(f *testing.F) {
	single := Trace{
		Format: TraceFormat, Kind: TraceSingle, Policy: seep.PolicyEnhanced, Seed: 7,
		Injection: &Injection{Server: "pm", Site: "pm.getpid", Occurrence: 3, Type: FaultCrash},
		Serving:   "rung:4 full:fingerprint-mismatch",
		Outcome:   TraceOutcome{Outcome: OutcomeCrash, Triggered: 1, Reason: "panic", Violations: []string{"vfs: dangling inode"}},
	}
	multi := Trace{
		Format: TraceFormat, Kind: TraceMulti, Policy: seep.PolicyPessimistic, Seed: 11,
		Injections: []MultiInjection{
			{Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 2, Type: FaultCrash}},
			{Injection: Injection{Server: "vfs", Site: "vfs.stat", Occurrence: 1, Type: FaultIPCDrop}, Correlated: true, Persistent: true},
		},
		IPC:     IPCOptions{Seed: 3, TimeoutCycles: 400000},
		Outcome: TraceOutcome{Outcome: OutcomeDegradedPass, Triggered: 2, Recoveries: 3, Quarantines: 1, Consistent: true},
	}
	for _, tr := range []Trace{single, multi} {
		data, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// What decodes but used not to write back: a record leaving out its
	// outcome, policy or fault type, and empty lists.
	for _, seed := range []string{
		`{"Format":"osiris-trace/v1","Policy":"enhanced"}`,
		`{"Format":"osiris-trace/v1","Outcome":{"Outcome":"pass"}}`,
		`{"Format":"osiris-trace/v1","Policy":"naive","Injection":{},"Outcome":{"Outcome":"fail"}}`,
		`{"Format":"osiris-trace/v1","Policy":"naive","Injections":[],"Outcome":{"Outcome":"fail","Violations":[]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeTrace(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("accepted trace does not marshal: %v", err)
		}
		again, err := decodeTrace(out)
		if err != nil || !reflect.DeepEqual(tr, again) {
			t.Fatalf("accepted trace does not read back (%v):\n%+v\n%+v", err, tr, again)
		}
	})
}
