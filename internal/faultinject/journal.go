package faultinject

// Crash-tolerant campaign journal: an append-only, checksummed log of
// completed run records. A campaign opens a journal, replays every
// entry already on disk (skipping those runs entirely), and appends
// each newly completed run. Killing the campaign at any instant —
// including mid-write — loses at most the unsynced tail: on reopen the
// first torn or corrupt entry and everything after it is detected,
// dropped, and simply re-executed. A file killed while it was being
// created — a strict prefix of the magic and header record the campaign
// writes — holds no run and is rewritten as a fresh journal. Because runs are pure
// functions of their plan index and seed, a resumed campaign's aggregate
// is bit-identical to an uninterrupted one at any worker count.
//
// On-disk layout: the 8-byte magic, then framed records — u32
// little-endian payload length, u32 CRC32-C of the payload, payload —
// where the first record is the JSON header (the campaign's identity:
// kind, policy, model, seed, plan shape, transport options, plan
// fingerprint) and every later record is one JSON run entry: a plan
// index and the run's MultiRunResult. Writes are fsync-batched (every
// syncEvery records and on Close); each record is appended with a single
// write call so a torn write can only produce a short or corrupt tail,
// never reorder earlier entries.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"sync"

	"repro/internal/seep"
)

// JournalMagic leads every campaign journal file.
const JournalMagic = "OSIRISJ2"

// retiredJournalMagic led the journals whose entries held a RunResult
// or a MultiRunResult by campaign kind.
const retiredJournalMagic = "OSIRISJ1"

// syncEvery is the fsync batch size: an unclean kill loses at most
// this many journaled results (they are simply re-run on resume).
const syncEvery = 16

// JournalHeader pins the campaign a journal belongs to. OpenJournal
// refuses to resume a journal whose stored header differs — resuming a
// different campaign would silently splice unrelated results.
type JournalHeader struct {
	Kind   string // TraceSingle or TraceMulti
	Policy seep.Policy
	Model  Model
	Seed   uint64
	// Plan shape (zero when not applicable to the kind).
	SamplesPerSite int
	MaxRuns        int
	Faults         int
	Runs           int
	IPC            IPCOptions
	// PlanFingerprint hashes the concrete injection plan, catching
	// profile drift that the shape fields alone would miss.
	PlanFingerprint uint64
}

// journalEntry is one completed run.
type journalEntry struct {
	Index int
	Run   MultiRunResult
}

// Journal is an open campaign journal. Lookup and Record are safe for
// concurrent use from campaign workers.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	entries  map[int]MultiRunResult
	unsynced int
	writeErr error
}

// PlanFingerprint hashes a single-fault plan for JournalHeader.
func PlanFingerprint(plan []Injection) uint64 {
	h := fnv.New64a()
	for _, inj := range plan {
		fmt.Fprintf(h, "%s/%s/%d/%d;", inj.Server, inj.Site, inj.Occurrence, int(inj.Type))
	}
	return h.Sum64()
}

// MultiPlanFingerprint hashes a multi-fault plan for JournalHeader.
func MultiPlanFingerprint(plans [][]MultiInjection) uint64 {
	h := fnv.New64a()
	for _, plan := range plans {
		for _, inj := range plan {
			fmt.Fprintf(h, "%s/%s/%d/%d/%v/%v/%v;", inj.Server, inj.Site, inj.Occurrence, int(inj.Type),
				inj.Correlated, inj.DuringRecovery, inj.Persistent)
		}
		h.Write([]byte{'|'})
	}
	return h.Sum64()
}

// OpenJournal opens (or creates) the journal at path for the campaign
// identified by hdr and returns it along with the number of run
// entries recovered from disk. A corrupt or torn tail is truncated
// away — those runs re-execute — and a file torn while it was being
// created is started afresh, but a mismatched or corrupt header or an
// unreadable file is an error: that is the wrong journal, not a
// recoverable tail.
func OpenJournal(path string, hdr JournalHeader) (*Journal, int, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return createJournal(path, hdr, os.O_EXCL)
	case err != nil:
		return nil, 0, err
	}

	entries, goodLen, err := scanJournal(data, hdr)
	switch {
	case errors.Is(err, errCreationTorn):
		return createJournal(path, hdr, os.O_TRUNC)
	case err != nil:
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if goodLen < int64(len(data)) {
		// Drop the torn/corrupt tail so appends continue from the last
		// intact record.
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Journal{f: f, entries: entries}, len(entries), nil
}

// createJournal starts a fresh journal with the header record; mode is
// os.O_EXCL for a new file or os.O_TRUNC to rewrite a creation-torn one.
func createJournal(path string, hdr JournalHeader, mode int) (*Journal, int, error) {
	head, err := journalHead(hdr)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|mode, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(head); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return &Journal{f: f, entries: make(map[int]MultiRunResult)}, 0, nil
}

// journalHead is what createJournal writes for hdr: the magic and the
// header record.
func journalHead(hdr JournalHeader) ([]byte, error) {
	payload, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	return append([]byte(JournalMagic), frameRecord(payload)...), nil
}

// frameRecord wraps a payload in the length+checksum frame.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcJournal))
	copy(buf[8:], payload)
	return buf
}

var crcJournal = crc32.MakeTable(crc32.Castagnoli)

// errCreationTorn is scanJournal's verdict on a file whose bytes are a
// strict prefix of what createJournal writes for the campaign: killed
// while it was being created, it holds no run.
var errCreationTorn = errors.New("faultinject: journal torn during creation")

// scanJournal parses a journal image: validates the magic and header,
// then reads run entries until the end of the file or the first torn,
// corrupt or invalid record. It returns the intact entries and the byte
// length of the intact prefix.
func scanJournal(data []byte, want JournalHeader) (map[int]MultiRunResult, int64, error) {
	head, err := journalHead(want)
	if err != nil {
		return nil, 0, err
	}
	// Only a prefix of this campaign's own head is a creation tear: any
	// other short or damaged head may be a journal full of runs.
	switch {
	case len(data) < len(head) && bytes.HasPrefix(head, data):
		return nil, 0, errCreationTorn
	case bytes.HasPrefix(data, []byte(retiredJournalMagic)):
		return nil, 0, fmt.Errorf("faultinject: journal is in the retired %s format; delete it to start the campaign afresh", retiredJournalMagic)
	case !bytes.HasPrefix(data, []byte(JournalMagic)):
		return nil, 0, fmt.Errorf("faultinject: not a campaign journal (bad magic)")
	}
	off := len(JournalMagic)

	// The header record must be intact — a journal torn inside its very
	// first record identifies nothing.
	hdrPayload, n := nextRecord(data[off:])
	if n < 0 {
		return nil, 0, fmt.Errorf("faultinject: journal header record torn or corrupt")
	}
	var stored JournalHeader
	if err := decodeStrict(hdrPayload, &stored); err != nil {
		return nil, 0, fmt.Errorf("faultinject: journal header: %w", err)
	}
	if !reflect.DeepEqual(stored, want) {
		return nil, 0, fmt.Errorf("faultinject: journal belongs to a different campaign:\n  stored  %+v\n  current %+v", stored, want)
	}
	off += n

	entries := make(map[int]MultiRunResult)
	for off < len(data) {
		payload, n := nextRecord(data[off:])
		if n < 0 {
			break // torn or corrupt tail: drop it and everything after
		}
		// Checksummed but unparsable, or a record no run of the
		// journal's kind produces: treat it as the corrupt tail.
		var e journalEntry
		if decodeStrict(payload, &e) != nil || e.Index < 0 || e.Run.check(want.Kind) != nil {
			break
		}
		entries[e.Index] = e.Run
		off += n
	}
	return entries, int64(off), nil
}

// decodeStrict decodes one JSON value, refusing fields v does not have.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// nextRecord parses one framed record from the front of b, returning
// its payload and total frame length, or -1 when the record is torn or
// fails its checksum.
func nextRecord(b []byte) ([]byte, int) {
	if len(b) < 8 {
		return nil, -1
	}
	plen := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if plen < 0 || 8+plen > len(b) {
		return nil, -1
	}
	payload := b[8 : 8+plen]
	if crc32.Checksum(payload, crcJournal) != crc {
		return nil, -1
	}
	return payload, 8 + plen
}

// Lookup returns the journaled record of run i.
func (j *Journal) Lookup(i int) (MultiRunResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	run, ok := j.entries[i]
	return run, ok
}

// Record journals the record of run i. Journal I/O errors degrade — the
// campaign keeps running, the error surfaces from Close — because
// losing resumability must never lose the campaign.
func (j *Journal) Record(i int, run MultiRunResult) {
	j.append(journalEntry{Index: i, Run: run})
}

func (j *Journal) append(e journalEntry) {
	payload, err := json.Marshal(e)
	if err != nil {
		j.noteErr(err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[e.Index] = e.Run
	if j.writeErr != nil {
		return
	}
	// One write call per record: a crash mid-append leaves a short tail,
	// never an interleaved one.
	if _, err := j.f.Write(frameRecord(payload)); err != nil {
		j.writeErr = err
		return
	}
	j.unsynced++
	if j.unsynced >= syncEvery {
		if err := j.f.Sync(); err != nil {
			j.writeErr = err
			return
		}
		j.unsynced = 0
	}
}

func (j *Journal) noteErr(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.writeErr == nil {
		j.writeErr = err
	}
}

// Close syncs and closes the journal, returning the first write error
// encountered (the campaign result itself is unaffected by journal
// failures).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.unsynced > 0 {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if j.writeErr != nil {
		return j.writeErr
	}
	return err
}
