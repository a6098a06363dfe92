// Package service wraps internal/runner in a long-running orchestration
// daemon (cmd/ncapd): sweeps are submitted over HTTP, every state
// transition is journaled to a crash-safe append-only log, jobs dispatch
// to local and remote workers under time-bounded leases, and a restarted
// service resumes every incomplete sweep to a report byte-identical to an
// uninterrupted run.
//
// The recovery model is replay-from-journal, not state snapshots: the
// journal records which jobs of a sweep completed (with their full
// results) and a restarted service simply re-runs each incomplete sweep's
// experiment driver — completed jobs short-circuit from the journal, so
// only genuinely unfinished work executes again. Because the driver code,
// job ordering, and result serialization are all deterministic, the
// reassembled ncap-report-v1 is byte-identical to one from a run that was
// never interrupted. DESIGN.md §6c walks through the argument.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ncap/internal/cluster"
	"ncap/internal/runner"
)

// JournalSchema identifies the journal format. Each segment file opens
// with a header record carrying this tag; replay rejects unknown schemas.
const JournalSchema = "ncap-journal-v1"

// Record types. Every state transition in the service appends exactly one
// record; replay folds them back into sweep state.
const (
	recHeader    = "header"    // first record of every segment
	recSubmit    = "submit"    // sweep accepted (synced)
	recLease     = "lease"     // job handed to a worker (unsynced)
	recRequeue   = "requeue"   // lease expired or failed, job re-enqueued (synced)
	recComplete  = "complete"  // job finished with a result (synced)
	recFail      = "fail"      // job failed its last attempt (synced)
	recDone      = "done"      // sweep finished, report on disk (synced)
	recSweepFail = "sweepfail" // sweep aborted by a driver error (synced)
	recDrain     = "drain"     // clean shutdown with undispatched work (synced)
)

// Record is one journal entry. The zero value of every optional field is
// omitted, keeping segments compact; Seq is assigned by the journal and
// is strictly increasing across the journal's whole life, including
// segment rotations — replay rejects any regression as corruption.
type Record struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`

	// Header fields (recHeader only).
	Schema  string `json:"schema,omitempty"`
	Segment int    `json:"segment,omitempty"`

	// Sweep-scoped fields.
	Sweep   string          `json:"sweep,omitempty"`
	Key     string          `json:"key,omitempty"` // job content key
	Tag     string          `json:"tag,omitempty"` // job display tag
	Worker  string          `json:"worker,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	Error   string          `json:"error,omitempty"`
	Pending int             `json:"pending,omitempty"` // recDrain: undispatched jobs
	Request json.RawMessage `json:"request,omitempty"` // recSubmit: the SubmitRequest
	Result  *cluster.Result `json:"result,omitempty"`  // recComplete: the job's result
}

// journalSegLimit is the rotation threshold: a segment that grows past it
// is sealed (fsynced) and a fresh one opened. Small enough that replay
// tooling never loads unbounded files, large enough that rotation is rare.
const journalSegLimit = 1 << 20

// Journal is the crash-safe append-only log. Appends are framed as
// "%08x %s\n" — the IEEE CRC32 of the JSON payload, a space, the payload
// — one record per line. Commit-point records (submit, complete, fail,
// done, drain, requeue) are fsynced before Append returns; advisory
// records (lease) ride along and may be lost to a crash, which is safe
// because leases do not survive a restart anyway.
type Journal struct {
	dir      string
	segLimit int64

	mu      sync.Mutex
	f       *os.File
	seq     uint64
	segment int
	size    int64
	aborted bool
}

// segName returns the file name of segment n.
func segName(n int) string { return fmt.Sprintf("seg-%08d.ncapj", n) }

// OpenJournal opens (or creates) the journal in dir, replays every
// segment, and returns the surviving non-header records in order. A torn
// tail — a partial line or a record whose CRC, JSON, or sequence does not
// check out — is tolerated only in the final segment: the tail is
// truncated away and appending resumes after the last good record. The
// same damage in an earlier segment is corruption, not a crash artifact
// (sealed segments were fsynced), and returns an error.
func OpenJournal(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.ncapj"))
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	sort.Strings(names)

	j := &Journal{dir: dir, segLimit: journalSegLimit}
	if len(names) == 0 {
		if err := j.openSegment(1, 1); err != nil {
			return nil, nil, err
		}
		return j, nil, nil
	}

	var all []Record
	nextSeq := uint64(1)
	for i, name := range names {
		var segNo int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.ncapj", &segNo); err != nil || segNo <= 0 {
			return nil, nil, fmt.Errorf("service: journal: stray file %s in journal directory", filepath.Base(name))
		}
		blob, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("service: journal: %w", err)
		}
		last := i == len(names)-1
		recs, good, perr := ParseJournal(blob, nextSeq, last)
		if perr != nil {
			return nil, nil, fmt.Errorf("service: journal %s: %w", filepath.Base(name), perr)
		}
		if last && good < len(blob) {
			// Torn tail: truncate to the good prefix so the next append
			// starts on a record boundary.
			if err := os.Truncate(name, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("service: journal: truncating torn tail: %w", err)
			}
		}
		for _, r := range recs {
			nextSeq = r.Seq + 1
			if r.Type == recHeader {
				continue
			}
			all = append(all, r)
		}
		if last {
			f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, fmt.Errorf("service: journal: %w", err)
			}
			j.f = f
			j.size = int64(good)
			j.seq = nextSeq - 1
			j.segment = segNo
		}
	}
	return j, all, nil
}

// ParseJournal decodes one segment's bytes starting at sequence firstSeq.
// It returns the decoded records and the byte length of the good prefix.
// With tolerateTail true (the final, possibly torn segment) a malformed
// record ends parsing without error; with it false any damage is an
// error. Either way it never panics — this is the surface FuzzParseJournal
// hammers.
func ParseJournal(blob []byte, firstSeq uint64, tolerateTail bool) ([]Record, int, error) {
	var recs []Record
	good := 0
	seq := firstSeq
	for off := 0; off < len(blob); {
		nl := bytes.IndexByte(blob[off:], '\n')
		if nl < 0 {
			if tolerateTail {
				return recs, good, nil
			}
			return recs, good, fmt.Errorf("record %d: truncated line", seq)
		}
		line := blob[off : off+nl]
		rec, err := parseRecord(line)
		if err == nil && rec.Seq != seq {
			err = fmt.Errorf("sequence %d, want %d", rec.Seq, seq)
		}
		if err == nil && rec.Type == recHeader && rec.Schema != JournalSchema {
			err = fmt.Errorf("schema %q, this service writes %q", rec.Schema, JournalSchema)
		}
		if err != nil {
			if tolerateTail {
				return recs, good, nil
			}
			return recs, good, fmt.Errorf("record %d: %w", seq, err)
		}
		recs = append(recs, rec)
		off += nl + 1
		good = off
		seq++
	}
	return recs, good, nil
}

// parseRecord decodes one framed line: 8 hex CRC digits, a space, JSON.
func parseRecord(line []byte) (Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, fmt.Errorf("malformed frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return Record{}, fmt.Errorf("malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Record{}, fmt.Errorf("checksum %08x, want %08x", got, want)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, err
	}
	if rec.Type == "" || rec.Seq == 0 {
		return Record{}, fmt.Errorf("missing type or seq")
	}
	return rec, nil
}

// Append journals one record, assigning its sequence number. With sync
// true the record (and by write ordering everything before it) is fsynced
// before Append returns — the commit point. After Abort, appends fail.
func (j *Journal) Append(rec Record, sync bool) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted || j.f == nil {
		return 0, fmt.Errorf("service: journal closed")
	}
	if j.size >= j.segLimit {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	j.seq++
	rec.Seq = j.seq
	n, err := j.writeLocked(rec)
	if err != nil {
		return 0, err
	}
	j.size += int64(n)
	if sync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("service: journal: %w", err)
		}
	}
	return rec.Seq, nil
}

// writeLocked frames and writes one record to the current segment.
func (j *Journal) writeLocked(rec Record) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("service: journal: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	n, err := j.f.WriteString(line)
	if err != nil {
		return n, fmt.Errorf("service: journal: %w", err)
	}
	return n, nil
}

// rotateLocked seals the current segment (fsync) and opens the next one
// with a fresh header record, fsyncing the new file and the directory so
// the rotation itself survives a machine crash.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	j.f = nil
	return j.openSegmentLocked(j.segment+1, j.seq+1)
}

// openSegment creates segment n whose header carries sequence seq.
func (j *Journal) openSegment(n int, seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.openSegmentLocked(n, seq)
}

func (j *Journal) openSegmentLocked(n int, seq uint64) error {
	path := filepath.Join(j.dir, segName(n))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	j.f = f
	j.segment = n
	j.size = 0
	j.seq = seq // the header consumes seq; Append assigns from here
	nBytes, err := j.writeLocked(Record{Seq: j.seq, Type: recHeader, Schema: JournalSchema, Segment: n})
	if err != nil {
		return err
	}
	j.size += int64(nBytes)
	if err := f.Sync(); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	if err := runner.SyncDir(j.dir); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	return nil
}

// Close seals the journal: outstanding bytes are fsynced and the file
// closed. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Abort simulates kill -9 for tests: the file handle is dropped without
// any flush or sync, so everything after the last synced commit point is
// at the mercy of the page cache — exactly the state a real crash leaves.
func (j *Journal) Abort() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.aborted = true
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
