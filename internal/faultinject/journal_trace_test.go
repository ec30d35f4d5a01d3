package faultinject

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/seep"
)

// journalTestHeader is the campaign identity used by the unit tests.
func journalTestHeader() JournalHeader {
	return JournalHeader{
		Kind: TraceSingle, Policy: seep.PolicyEnhanced, Model: FailStop,
		Seed: 7, SamplesPerSite: 1, MaxRuns: 6, PlanFingerprint: 12345,
	}
}

func sampleRun(i int) MultiRunResult {
	return MultiRunResult{
		Injections: []MultiInjection{{Injection: Injection{Server: "pm", Site: "s", Occurrence: i + 1, Type: FaultCrash}}},
		Outcome:    OutcomePass,
		Triggered:  1,
		Recoveries: 1,
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
	want := make(map[int]MultiRunResult)
	for i := 0; i < 40; i++ { // crosses the fsync batch boundary
		run := sampleRun(i)
		if i%3 == 0 {
			run.Outcome = OutcomeCrash
			run.Consistent = false
			run.Violations = []string{"vfs: dangling inode"}
		}
		j.Record(i, run)
		want[i] = run
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
	for i, run := range want {
		got, ok := j2.Lookup(i)
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if !reflect.DeepEqual(got, run) {
			t.Fatalf("entry %d changed across reopen:\nwrote %+v\nread  %+v", i, run, got)
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
		j.Record(i, sampleRun(i))
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
		j.Record(99, sampleRun(99))
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
	j.Record(0, sampleRun(0))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*JournalHeader){
		"policy":      func(h *JournalHeader) { h.Policy = seep.PolicyNaive },
		"model":       func(h *JournalHeader) { h.Model = FullEDFI },
		"seed":        func(h *JournalHeader) { h.Seed++ },
		"fingerprint": func(h *JournalHeader) { h.PlanFingerprint++ },
		"kind":        func(h *JournalHeader) { h.Kind = TraceMulti },
		"ipc":         func(h *JournalHeader) { h.IPC.Seed++ },
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

// TestJournalCreationTorn: a file killed while OpenJournal was creating
// it — a strict prefix of the magic and header record it writes — holds
// no run and is started afresh. A foreign magic, a complete header
// record that fails its checksum, a header whose length word points past
// the end of a journal with entries, and a file that is no journal at
// all stay refused, and are left as they were.
func TestJournalCreationTorn(t *testing.T) {
	hdr := journalTestHeader()
	clean := journalImage(t, hdr)
	magic := len(JournalMagic)
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"empty":                  {},
		"inside the magic":       clean[:magic-3],
		"inside the frame head":  clean[:magic+5],
		"inside the header body": clean[:len(clean)-3],
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, resumed, err := OpenJournal(path, hdr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resumed != 0 {
			t.Errorf("%s: resumed %d runs", name, resumed)
		}
		j.Record(0, sampleRun(0))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, resumed, err := OpenJournal(path, hdr); err != nil || resumed != 1 {
			t.Errorf("%s: after a fresh start and one record: resumed %d, err %v", name, resumed, err)
		}
	}

	crc := append([]byte(nil), clean...)
	crc[len(crc)-2] ^= 0x01
	foreign := append([]byte("OSIRISX9"), clean[magic:]...)
	longHeader := journalImage(t, hdr, singleEntry(0), singleEntry(1))
	binary.LittleEndian.PutUint32(longHeader[magic:], uint32(len(longHeader)))
	for name, data := range map[string][]byte{
		"header checksum":            crc,
		"header length past the end": longHeader,
		"foreign magic":              foreign,
		"no journal":                 []byte("not a journal at all"),
	} {
		path := filepath.Join(dir, "refused-"+strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(path, hdr); err == nil {
			t.Errorf("%s: opened", name)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: a refused file was rewritten", name)
		}
	}
}

// TestJournalRefusesRetiredFormat: a journal of the retired OSIRISJ1
// format is refused with an error that names it and says what to do.
func TestJournalRefusesRetiredFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	old := append([]byte("OSIRISJ1"), journalImage(t, journalTestHeader())[len(JournalMagic):]...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path, journalTestHeader())
	if err == nil || !strings.Contains(err.Error(), "OSIRISJ1") || !strings.Contains(err.Error(), "delete") {
		t.Fatalf("retired journal: err %v, want one naming OSIRISJ1 and saying to delete it", err)
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
	mrr := RunMultiWith(seep.PolicyEnhanced, 11, injs, IPCOptions{})
	mtr := NewRunTrace(TraceMulti, seep.PolicyEnhanced, mrr, IPCOptions{})
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
	bad.Run.TestsFailed++
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
	rcfg.OnResult = func(i int, run MultiRunResult, sv Serving) {
		seen = append(seen, i)
		if run.Seed != cfg.Seed+uint64(i)*7919 {
			t.Errorf("run %d: journal-served seed %d does not match plan seed", i, run.Seed)
		}
		if sv.Plane != PlaneJournal {
			t.Errorf("run %d: served %s, not from the journal", i, sv)
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
// memory exactly as OpenJournal and Record write one. An entry is a
// journalEntry or, to write what Record never would, a json.RawMessage.
func journalImage(t testing.TB, hdr JournalHeader, entries ...any) []byte {
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

func singleEntry(i int) journalEntry { return journalEntry{Index: i, Run: sampleRun(i)} }

// multiEntry is a two-fault run.
func multiEntry(i int) journalEntry {
	run := sampleRun(i)
	run.Injections = append(run.Injections, MultiInjection{Injection: run.Injections[0].Injection, Correlated: true})
	return journalEntry{Index: i, Run: run}
}

// TestJournalRefusesEntriesNoLookupReads: an entry with a negative index,
// missing or unknown fields, an outcome or fault type without a name, or
// an injection count no run of the journal's kind has passes its
// checksum, but no run could have written it. Kept, it resumed as a run
// the tally misreads, so it is the corrupt tail, and everything after it
// goes.
func TestJournalRefusesEntriesNoLookupReads(t *testing.T) {
	multiHdr := journalTestHeader()
	multiHdr.Kind = TraceMulti
	negative := singleEntry(2)
	negative.Index = -1
	correlated := singleEntry(1)
	correlated.Run.Injections[0].Correlated = true
	unarmed := multiEntry(2)
	unarmed.Run.Injections = nil
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	for name, c := range map[string]struct {
		hdr     JournalHeader
		entries []any
		want    int
	}{
		"negative index":                         {journalTestHeader(), []any{singleEntry(0), singleEntry(1), negative, singleEntry(3)}, 2},
		"two injections in a single journal":     {journalTestHeader(), []any{singleEntry(0), multiEntry(1), singleEntry(2)}, 1},
		"a correlated injection, single journal": {journalTestHeader(), []any{singleEntry(0), correlated, singleEntry(2)}, 1},
		"no injection in a multi journal":        {multiHdr, []any{multiEntry(0), multiEntry(1), unarmed, multiEntry(3)}, 2},
		"a single-fault run in a multi journal":  {multiHdr, []any{multiEntry(0), singleEntry(1)}, 2},
		"missing and unknown fields":             {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1,"Single":{},"Bogus":1}`), singleEntry(2)}, 1},
		"no run":                                 {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1}`), singleEntry(2)}, 1},
		"an outcome without a name":              {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1,"Run":{"Injections":[{"Server":"pm","Site":"s","Occurrence":1,"Type":"crash"}],"Triggered":1}}`)}, 1},
		"a fault type without a name":            {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1,"Run":{"Injections":[{"Server":"pm","Site":"s","Occurrence":1}],"Outcome":"pass"}}`)}, 1},
		"an unknown field beside a run":          {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1,"Run":{"Injections":[{"Server":"pm","Site":"s","Occurrence":1,"Type":"crash"}],"Outcome":"pass"},"Bogus":1}`)}, 1},
		"a well-formed record written by hand":   {journalTestHeader(), []any{singleEntry(0), raw(`{"Index":1,"Run":{"Injections":[{"Server":"pm","Site":"s","Occurrence":1,"Type":"crash"}],"Outcome":"pass"}}`)}, 2},
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
// entries that pass the record check a trace passes too, and scans again
// to the same entries.
func FuzzScanJournal(f *testing.F) {
	hdr := journalTestHeader()
	var entries []any
	for i := 0; i < 6; i++ {
		entries = append(entries, singleEntry(i))
	}
	clean := journalImage(f, hdr, entries...)
	// TestJournalTornAndCorruptTails's shapes, the entries no run
	// writes, and a journal torn during creation.
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
		journalImage(f, hdr, append(entries, json.RawMessage(`{"Index":6,"Single":{},"Bogus":1}`))...),
		[]byte(JournalMagic),
		clean[:len(JournalMagic)+5],
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
		for i, run := range got {
			if err := run.check(hdr.Kind); i < 0 || err != nil {
				t.Fatalf("kept entry %d no run writes (%v): %+v", i, err, run)
			}
		}
		again, againLen, err := scanJournal(data[:goodLen], hdr)
		if err != nil || againLen != goodLen || !reflect.DeepEqual(got, again) {
			t.Fatalf("the intact prefix rescans differently: %d → %d bytes, %d → %d entries, %v", goodLen, againLen, len(got), len(again), err)
		}
	})
}

// TestTraceRefusesRetiredFormat: a trace of the retired v1 format is
// refused by its format tag, not by the first field v2 lacks.
func TestTraceRefusesRetiredFormat(t *testing.T) {
	v1 := `{"Format":"osiris-trace/v1","Kind":"single","Policy":"enhanced","Seed":7,` +
		`"Injection":{"Server":"pm","Site":"pm.getpid","Occurrence":3,"Type":"crash"},` +
		`"Outcome":{"Outcome":"fail","Triggered":1,"Consistent":true}}`
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadTraceFile(path)
	if err == nil || !strings.Contains(err.Error(), `unsupported trace format "osiris-trace/v1"`) {
		t.Fatalf("v1 trace: err %v, want an unsupported trace format error", err)
	}
}

// TestTraceRefusesRunReplayCannotBoot: a recorded trace edited to a
// negative drop rate or a rate past 10000, which the kernel refuses, or
// to a transport timeout or retry budget, which no run can be given any
// more, is refused as it is read. With the plane on, the first used to
// panic in core.NewOS at replay; without it, it replayed as PASS.
func TestTraceRefusesRunReplayCannotBoot(t *testing.T) {
	tr := NewTrace(seep.PolicyEnhanced, RunResult{
		Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 3, Type: FaultCrash},
		Outcome:   OutcomePass, Triggered: true, Seed: 7, Consistent: true,
	}, IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 5, DupBP: 5}})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(path); err != nil {
		t.Fatalf("the recorded trace: %v", err)
	}
	for field, edit := range map[string][2]string{
		"DropBP":        {`"DropBP": 5,`, `"DropBP": -5,`},
		"DupBP":         {`"DupBP": 5,`, `"DupBP": 10001,`},
		"TimeoutCycles": {`"Seed": 0`, `"Seed": 0, "TimeoutCycles": 400000`},
		"RetryMax":      {`"Seed": 0`, `"Seed": 0, "RetryMax": 2`},
		"DelayCycles":   {`"CorruptBP": 0`, `"CorruptBP": 0, "DelayCycles": 5000`},
	} {
		if !bytes.Contains(recorded, []byte(edit[0])) {
			t.Fatalf("%s: the recorded trace has no %s", field, edit[0])
		}
		if err := os.WriteFile(path, bytes.Replace(recorded, []byte(edit[0]), []byte(edit[1]), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTraceFile(path); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("trace edited to %s: err %v, want a refusal naming %s", edit[1], err, field)
		}
	}
}

// FuzzReadTrace: a trace ReadTraceFile's decode accepts marshals and
// decodes again to an equal value.
func FuzzReadTrace(f *testing.F) {
	single := NewTrace(seep.PolicyEnhanced, RunResult{
		Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 3, Type: FaultCrash},
		Outcome:   OutcomeCrash, Triggered: true, Recoveries: 1, Seed: 7, Reason: "panic",
		Violations: []string{"vfs: dangling inode"},
	}, IPCOptions{})
	single.Serving = "rung:4 full:fingerprint-mismatch"
	multi := NewRunTrace(TraceMulti, seep.PolicyPessimistic, MultiRunResult{
		Injections: []MultiInjection{
			{Injection: Injection{Server: "pm", Site: "pm.getpid", Occurrence: 2, Type: FaultCrash}},
			{Injection: Injection{Server: "vfs", Site: "vfs.stat", Occurrence: 1, Type: FaultIPCDrop}, Correlated: true, Persistent: true},
		},
		Outcome: OutcomeDegradedPass, Triggered: 2, Recoveries: 3, Quarantines: 1, Seed: 11, Consistent: true,
	}, IPCOptions{Seed: 3})
	for _, tr := range []Trace{single, multi} {
		data, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// What decodes but would not write back: a record leaving out its
	// outcome, policy or fault type, and empty lists.
	for _, seed := range []string{
		`{"Format":"osiris-trace/v3","Policy":"enhanced"}`,
		`{"Format":"osiris-trace/v3","Kind":"single","Run":{"Outcome":"pass"}}`,
		`{"Format":"osiris-trace/v3","Kind":"single","Policy":"naive","Run":{"Injections":[{}],"Outcome":"fail"}}`,
		`{"Format":"osiris-trace/v3","Kind":"multi","Policy":"naive","Run":{"Injections":[],"Outcome":"fail","Violations":[]}}`,
		`{"Format":"osiris-trace/v3","Kind":"multi","Policy":"naive","Run":{"Injections":[{"Type":"crash"}],"Outcome":"fail","Violations":[]}}`,
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
