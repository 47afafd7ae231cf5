package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/al"
	"repro/internal/faults"
	"repro/internal/obs"
)

// journalVersion is the on-disk checkpoint format version; loading
// rejects files written by an incompatible server.
//
// Version 2 is an append-only JSONL log: a header line, one line per
// accepted observation, snapshot lines (the session checkpoint after
// the first n observations; see Snapshot), and (after the campaign
// ends) a terminal line. Appending one observation is one write+fsync
// of one line, so a crash can lose at most the final, unacknowledged
// line — the loader drops a torn tail and resumes from the last
// complete record, which by construction is an observation the client
// was never acked for (or was acked for and will dedup via its
// idempotency key), or a snapshot, which only saves replay work.
const journalVersion = 2

var (
	journalTruncations = obs.C("serve.journal.truncated")
	journalAppendErrs  = obs.C("serve.journal.append.errors")
	journalAppends     = obs.C("serve.journal.appends")
)

// ErrJournal marks an observation rejected because its journal append
// failed: the observation was NOT applied and the client must retry
// (HTTP 503 + Retry-After).
var ErrJournal = errors.New("serve: journal append failed")

// Appender is the append side of one campaign's journal. It is owned by
// the campaign actor goroutine — implementations need not be safe for
// concurrent use. A replication layer (internal/ring) may wrap a local
// Appender to ship every record to a follower BEFORE the local append
// returns, which composes with the service's journal-before-ack rule to
// give replicate-before-ack.
type Appender interface {
	// AppendObs durably appends one accepted observation, pinned to the
	// model version and fingerprint current at append time.
	AppendObs(o Observation, modelVersion int, fp uint64) error
	// AppendFinal appends the terminal outcome line.
	AppendFinal(state, errMsg string, converged bool, modelVersion int, fp uint64) error
	// AppendSnapshot appends a session snapshot line and, when final is
	// non-nil, the terminal line after it in the same write.
	AppendSnapshot(snap Snapshot, final *Final) error
	// Disable stops journaling without poisoning the stored prefix: the
	// valid prefix stays replayable (dataset campaigns use this after an
	// append failure instead of halting).
	Disable()
	// Close releases the journal. The campaign actor calls it on exit.
	Close() error
}

// encodeRecord renders one journal record as its canonical line
// (JSON + newline). Journals are byte-identical wherever this encoding
// is used, which is what lets the cluster layer ship raw lines and
// still satisfy the fingerprint-pinned replay-equivalence contract.
func encodeRecord(rec *journalRecord) ([]byte, error) {
	buf, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal journal record: %w", err)
	}
	return append(buf, '\n'), nil
}

// EncodeJournalHeader renders the canonical header line for a campaign
// journal. Exported for replication layers that rebuild journals from
// shipped lines.
func EncodeJournalHeader(id string, spec CampaignSpec) ([]byte, error) {
	return encodeRecord(&journalRecord{Header: &journalHeader{Version: journalVersion, ID: id, Spec: spec}})
}

// EncodeJournalObs renders the canonical observation line.
func EncodeJournalObs(o Observation, modelVersion int, fp uint64) ([]byte, error) {
	return encodeRecord(&journalRecord{Obs: &journalObs{
		X: o.X, Y: o.Y, Cost: o.Cost, Key: o.Key, MV: modelVersion, FP: fpHex(fp),
	}})
}

// EncodeJournalFinal renders the canonical terminal line.
func EncodeJournalFinal(state, errMsg string, converged bool, modelVersion int, fp uint64) ([]byte, error) {
	return encodeRecord(&journalRecord{Final: &journalFinal{
		State: state, Error: errMsg, Converged: converged, MV: modelVersion, FP: fpHex(fp),
	}})
}

// EncodeJournalSnapshot renders the canonical snapshot line.
func EncodeJournalSnapshot(snap Snapshot) ([]byte, error) {
	return encodeRecord(&journalRecord{Snapshot: &journalSnapshot{
		N: snap.N, MV: snap.ModelVersion, FP: fpHex(snap.Fingerprint), Session: snap.Session,
	}})
}

// encodeSnapshotFinal renders a snapshot line, followed by the terminal
// line when final is non-nil: the bytes of one AppendSnapshot.
func encodeSnapshotFinal(snap Snapshot, final *Final) ([]byte, error) {
	buf, err := EncodeJournalSnapshot(snap)
	if err != nil || final == nil {
		return buf, err
	}
	line, err := EncodeJournalFinal(final.State, final.Error, final.Converged, final.ModelVersion, final.Fingerprint)
	if err != nil {
		return nil, err
	}
	return append(buf, line...), nil
}

// Snapshot is a journal snapshot record: the campaign session's
// checkpoint (an al.Checkpoint as JSON) after its first N journaled
// observations, pinned to the model version and fingerprint current
// then. Resume restores the newest valid snapshot and replays only the
// observations after it. The checkpoint stays raw JSON until resume
// decodes it, so a snapshot that fails to decode costs that snapshot,
// not the journal.
type Snapshot struct {
	N            int
	ModelVersion int
	Fingerprint  uint64
	Session      json.RawMessage
}

// Final is the outcome a terminal journal line records.
type Final struct {
	State        string
	Error        string
	Converged    bool
	ModelVersion int
	Fingerprint  uint64
}

// errJournalDirty means a previous append left the file tail in an
// unknown state (torn write, or a failed write that could not be rolled
// back); the writer refuses everything until the next boot re-validates
// the file.
var errJournalDirty = errors.New("serve: journal writer dirty, restart required")

// journalRecord is one line of the v2 journal; exactly one of the four
// fields is set.
type journalRecord struct {
	Header   *journalHeader   `json:"h,omitempty"`
	Obs      *journalObs      `json:"o,omitempty"`
	Snapshot *journalSnapshot `json:"s,omitempty"`
	Final    *journalFinal    `json:"f,omitempty"`
}

// journalHeader is the first line: identity plus the spec the campaign
// is rebuilt from on resume.
type journalHeader struct {
	Version int          `json:"version"`
	ID      string       `json:"id"`
	Spec    CampaignSpec `json:"spec"`
}

// journalObs is one accepted oracle return. MV/FP pin the model
// identity at append time (hex fingerprint, "" before the first fit);
// replay must reproduce the same fingerprint at the same version or the
// campaign fails instead of serving silently diverged suggestions. X is
// the measured input point — informational for replay, load-bearing for
// surrogate training (the field is additive, so version-2 journals
// written without it still load).
type journalObs struct {
	X    []float64    `json:"x,omitempty"`
	Y    al.JSONFloat `json:"y"`
	Cost al.JSONFloat `json:"cost"`
	Key  string       `json:"key,omitempty"`
	MV   int          `json:"mv,omitempty"`
	FP   string       `json:"fp,omitempty"`
}

// journalSnapshot is the line form of Snapshot (hex fingerprint).
type journalSnapshot struct {
	N       int             `json:"n"`
	MV      int             `json:"mv,omitempty"`
	FP      string          `json:"fp,omitempty"`
	Session json.RawMessage `json:"session"`
}

// journalFinal records the campaign's outcome. Resume strips it (the
// replay re-derives and re-appends it), so it is informational for
// humans and external tools reading the file.
type journalFinal struct {
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	Converged bool   `json:"converged,omitempty"`
	MV        int    `json:"mv,omitempty"`
	FP        string `json:"fp,omitempty"`
}

// journalFile is the loaded view of a checkpoint. ModelVersion and
// Fingerprint carry the integrity pin of the LAST complete observation;
// appendOffset is the byte offset where resume continues appending —
// past the last complete observation or snapshot, excluding any
// terminal line and any torn tail — and lines counts the records
// before it.
type journalFile struct {
	Version      int
	ID           string
	Spec         CampaignSpec
	Observations []Observation
	Snapshots    []Snapshot // the newest keptSnapshots, oldest first
	ModelVersion int
	Fingerprint  uint64
	Done         bool
	Error        string

	appendOffset int64
	lines        int
	truncated    bool // a torn tail was dropped during load
}

// keptSnapshots bounds the snapshots a load keeps: the newest, and one
// to fall back to when the newest does not validate.
const keptSnapshots = 2

func fpHex(fp uint64) string {
	if fp == 0 {
		return ""
	}
	return strconv.FormatUint(fp, 16)
}

// loadJournal reads and validates a campaign checkpoint, tolerating a
// torn final line: the tail is dropped (with a serve.journal.truncated
// event) and the journal is valid up to the last complete record.
func loadJournal(path string) (*journalFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read checkpoint: %w", err)
	}
	return parseJournal(data, path)
}

// parseJournal applies the journal crash-recovery rules to raw bytes.
// src names the source (a path or store key) in errors and events.
func parseJournal(data []byte, src string) (*journalFile, error) {
	path := src
	jf := &journalFile{Version: journalVersion}
	off := 0
	n := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: a torn append. Drop it.
			jf.truncated = true
			journalTruncations.Inc()
			obs.Emit("serve.journal.truncated", map[string]any{
				"path": path, "dropped_bytes": len(data) - off, "reason": "torn tail",
			})
			break
		}
		line := data[off : off+nl]
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if off+nl+1 >= len(data) {
				// Last line: a tear that happened to end at a byte that
				// looks like a newline. Same recovery as an open tail.
				jf.truncated = true
				journalTruncations.Inc()
				obs.Emit("serve.journal.truncated", map[string]any{
					"path": path, "dropped_bytes": len(line) + 1, "reason": "unparsable tail",
				})
				break
			}
			// Corruption in the middle of the file is not a crash
			// artifact; refuse to guess.
			return nil, fmt.Errorf("serve: checkpoint %s: corrupt record %d: %w", path, n, err)
		}
		switch {
		case rec.Header != nil:
			if n != 0 {
				return nil, fmt.Errorf("serve: checkpoint %s: header not first", path)
			}
			if rec.Header.Version != journalVersion {
				return nil, fmt.Errorf("serve: checkpoint %s has version %d, want %d", path, rec.Header.Version, journalVersion)
			}
			jf.ID = rec.Header.ID
			jf.Spec = rec.Header.Spec
			jf.appendOffset, jf.lines = int64(off+nl+1), n+1
		case rec.Obs != nil:
			jf.Observations = append(jf.Observations, Observation{
				X: rec.Obs.X, Y: rec.Obs.Y, Cost: rec.Obs.Cost, Key: rec.Obs.Key,
			})
			if rec.Obs.MV > 0 {
				jf.ModelVersion = rec.Obs.MV
				jf.Fingerprint, _ = strconv.ParseUint(rec.Obs.FP, 16, 64)
			}
			jf.appendOffset, jf.lines = int64(off+nl+1), n+1
		case rec.Snapshot != nil:
			// A snapshot can only cover observations written before it;
			// one that claims more is kept as a line but never restored.
			if sn := rec.Snapshot; sn.N >= 0 && sn.N <= len(jf.Observations) {
				fp, _ := strconv.ParseUint(sn.FP, 16, 64)
				jf.Snapshots = append(jf.Snapshots, Snapshot{N: sn.N, ModelVersion: sn.MV, Fingerprint: fp, Session: sn.Session})
				if len(jf.Snapshots) > keptSnapshots {
					jf.Snapshots = append(jf.Snapshots[:0], jf.Snapshots[1:]...)
				}
			}
			jf.appendOffset, jf.lines = int64(off+nl+1), n+1
		case rec.Final != nil:
			jf.Done = rec.Final.State == StateDone
			jf.Error = rec.Final.Error
			// appendOffset intentionally not advanced: resume overwrites
			// the terminal line.
		default:
			return nil, fmt.Errorf("serve: checkpoint %s: empty record %d", path, n)
		}
		n++
		off += nl + 1
	}
	if n == 0 {
		return nil, fmt.Errorf("serve: checkpoint %s is empty", path)
	}
	if jf.ID == "" {
		return nil, fmt.Errorf("serve: checkpoint %s has no campaign id", path)
	}
	if err := jf.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return jf, nil
}

// journalWriter is the append side of the v2 log. It is owned by the
// campaign actor goroutine: no method is safe for concurrent use.
type journalWriter struct {
	path string
	f    *os.File
	off  int64 // end of the last complete record

	// seq numbers appends across the journal's whole life (resume
	// continues the count) so torn-write chaos decisions are a pure
	// function of (seed, append index).
	seq  int
	tear faults.TornWriteConfig

	// dirty: the file tail is unknown (torn write or unrecoverable
	// failed write) — fail closed until a restart re-validates the file.
	// broken: journaling is disabled for this campaign (dataset
	// campaigns keep running on a valid prefix instead of halting).
	dirty  bool
	broken bool
}

// createJournal starts a fresh journal: truncate, header line, fsync.
func createJournal(path, id string, spec CampaignSpec, tear faults.TornWriteConfig) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: create journal: %w", err)
	}
	w := &journalWriter{path: path, f: f, tear: tear}
	buf, err := EncodeJournalHeader(id, spec)
	if err == nil {
		err = w.write(buf)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("serve: write journal header: %w", err)
	}
	return w, nil
}

// openJournalAt reopens an existing journal for appending: the file is
// truncated to off (dropping torn tails and stale terminal lines the
// loader skipped) and the append counter continues from seqBase.
func openJournalAt(path string, off int64, seqBase int, tear faults.TornWriteConfig) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: trim journal tail: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: seek journal: %w", err)
	}
	return &journalWriter{path: path, f: f, off: off, seq: seqBase, tear: tear}, nil
}

// write appends encoded records (one line, or a snapshot and terminal
// line together) with a single write+fsync. On failure it rolls the
// file back to the last complete record so a retry starts clean; when
// even the rollback fails (or a torn write simulated a crash), the
// writer goes dirty and fails closed.
func (w *journalWriter) write(buf []byte) error {
	if w.dirty {
		return errJournalDirty
	}
	if w.broken {
		return errJournalDirty
	}
	w.seq++
	if frac, torn := faults.TearDecision(w.tear, w.seq); torn {
		// Chaos: deliver a prefix and "crash". The tail is now unknown,
		// exactly as after a real power loss mid-write.
		cut := int(frac * float64(len(buf)))
		if cut < 1 {
			cut = 1
		}
		if cut >= len(buf) {
			cut = len(buf) - 1
		}
		w.f.Write(buf[:cut])
		w.f.Sync()
		w.dirty = true
		return fmt.Errorf("%w: torn append %d (%d of %d bytes)", errJournalDirty, w.seq, cut, len(buf))
	}
	if _, err := w.f.Write(buf); err != nil {
		// A failed write may still have landed bytes; restore the
		// known-good prefix so the journal stays parseable.
		if terr := w.f.Truncate(w.off); terr != nil {
			w.dirty = true
		} else if _, serr := w.f.Seek(w.off, 0); serr != nil {
			w.dirty = true
		}
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		if terr := w.f.Truncate(w.off); terr != nil {
			w.dirty = true
		} else if _, serr := w.f.Seek(w.off, 0); serr != nil {
			w.dirty = true
		}
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	w.off += int64(len(buf))
	return nil
}

// AppendObs implements Appender.
func (w *journalWriter) AppendObs(o Observation, mv int, fp uint64) error {
	buf, err := EncodeJournalObs(o, mv, fp)
	if err != nil {
		return err
	}
	return w.write(buf)
}

// AppendFinal implements Appender.
func (w *journalWriter) AppendFinal(state, errMsg string, converged bool, mv int, fp uint64) error {
	buf, err := EncodeJournalFinal(state, errMsg, converged, mv, fp)
	if err != nil {
		return err
	}
	return w.write(buf)
}

// AppendSnapshot implements Appender.
func (w *journalWriter) AppendSnapshot(snap Snapshot, final *Final) error {
	buf, err := encodeSnapshotFinal(snap, final)
	if err != nil {
		return err
	}
	return w.write(buf)
}

// Disable stops journaling without poisoning the file: the valid prefix
// stays replayable. Used by dataset campaigns after an append failure —
// skipping an entry would corrupt replay order, so they stop journaling
// entirely and re-measure on resume.
func (w *journalWriter) Disable() { w.broken = true }

// Close implements Appender.
func (w *journalWriter) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}
