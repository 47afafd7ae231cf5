package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
)

// ErrStoreNotFound reports a campaign id with no persisted journal.
var ErrStoreNotFound = errors.New("serve: no journal in store")

// Store abstracts campaign journal persistence for the Manager: a local
// checkpoint directory today (DirStore), an in-memory map for tests and
// replica buffers (MemStore), or a replicating wrapper (internal/ring)
// that ships every record to a follower. All methods except the
// returned Appenders must be safe for concurrent use.
//
// The unit of exchange is the raw journal byte stream (header line,
// observation lines, optional terminal line): Export/Import move a
// campaign between stores — and, via the cluster layer, between nodes —
// with byte identity, so a shipped campaign replays to exactly the
// fingerprinted trace the origin would have produced.
type Store interface {
	// IDs lists the campaign ids with persisted journals in
	// deterministic natural order ("c0002" before "c10000" regardless of
	// creation order or platform directory order).
	IDs() ([]string, error)

	// Create starts a fresh journal for id (truncating any previous one)
	// and returns its open Appender.
	Create(id string, spec CampaignSpec) (Appender, error)

	// Load reads the journal for id, applying the crash-recovery rules
	// (torn tails dropped, terminal lines stripped), and reopens it for
	// appending positioned after the last complete observation or
	// snapshot.
	Load(id string) (*JournalInfo, Appender, error)

	// Remove deletes the journal for id. Removing an absent id is not an
	// error.
	Remove(id string) error

	// Export returns the raw journal bytes for id.
	Export(id string) ([]byte, error)

	// Import installs raw journal bytes under id, overwriting any
	// existing journal, after validating that they parse as a journal
	// for that campaign id.
	Import(id string, data []byte) error
}

// validateImport parses shipped journal bytes and checks they belong to
// the campaign id they are being installed under.
func validateImport(id string, data []byte) error {
	jf, err := parseJournal(data, "import:"+id)
	if err != nil {
		return err
	}
	if jf.ID != id {
		return fmt.Errorf("serve: imported journal is for campaign %q, not %q", jf.ID, id)
	}
	return nil
}

// --- DirStore: one <id>.json journal per campaign in a directory ---

// DirStore persists one append-only JSONL journal per campaign in a
// directory — the layout alserve's -checkpoint-dir always used.
type DirStore struct {
	dir  string
	tear faults.TornWriteConfig
}

// NewDirStore builds a DirStore rooted at dir. The directory is created
// lazily on the first Create/Import. tear injects deterministic torn
// appends (the chaos knob; zero never tears).
func NewDirStore(dir string, tear faults.TornWriteConfig) *DirStore {
	return &DirStore{dir: dir, tear: tear}
}

func (s *DirStore) path(id string) string { return filepath.Join(s.dir, id+".json") }

// IDs implements Store. A missing directory reads as empty.
func (s *DirStore) IDs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: scan journal dir: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	SortCampaignIDs(ids)
	return ids, nil
}

// Create implements Store.
func (s *DirStore) Create(id string, spec CampaignSpec) (Appender, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create journal dir: %w", err)
	}
	return createJournal(s.path(id), id, spec, s.tear)
}

// Load implements Store.
func (s *DirStore) Load(id string) (*JournalInfo, Appender, error) {
	jf, err := loadJournal(s.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
		}
		return nil, nil, err
	}
	jw, err := openJournalAt(s.path(id), jf.appendOffset, jf.lines-1, s.tear)
	if err != nil {
		return nil, nil, err
	}
	return jf.info(), jw, nil
}

// Remove implements Store.
func (s *DirStore) Remove(id string) error {
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("serve: remove checkpoint: %w", err)
	}
	return nil
}

// Export implements Store.
func (s *DirStore) Export(id string) ([]byte, error) {
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
		}
		return nil, fmt.Errorf("serve: export journal: %w", err)
	}
	return data, nil
}

// Import implements Store. The write is atomic (temp file + rename) so
// a crash mid-import never leaves a half-shipped journal behind.
func (s *DirStore) Import(id string, data []byte) error {
	if err := validateImport(id, data); err != nil {
		return err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("serve: create journal dir: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "."+id+".import-*")
	if err != nil {
		return fmt.Errorf("serve: import journal: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: import journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: import journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: import journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: import journal: %w", err)
	}
	return nil
}

// --- MemStore: in-memory journals ---

// MemStore keeps whole journals in memory: the store for tests, the
// replay-equivalence suite, and cluster replica buffers. Journal bytes
// are identical to what a DirStore would hold on disk, so campaigns
// move between a MemStore and a DirStore (or across nodes) via
// Export/Import without any trace divergence.
type MemStore struct {
	mu       sync.Mutex
	journals map[string]*memJournal
}

type memJournal struct {
	buf    []byte
	closed bool // the owning Appender has been closed or superseded
}

// NewMemStore builds an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{journals: make(map[string]*memJournal)}
}

// IDs implements Store.
func (s *MemStore) IDs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.journals))
	for id := range s.journals {
		ids = append(ids, id)
	}
	SortCampaignIDs(ids)
	return ids, nil
}

// Create implements Store.
func (s *MemStore) Create(id string, spec CampaignSpec) (Appender, error) {
	line, err := EncodeJournalHeader(id, spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &memJournal{buf: line}
	s.journals[id] = j
	return &memAppender{store: s, id: id, j: j}, nil
}

// Load implements Store.
func (s *MemStore) Load(id string) (*JournalInfo, Appender, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.journals[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
	}
	jf, err := parseJournal(bytes.Clone(j.buf), "mem:"+id)
	if err != nil {
		return nil, nil, err
	}
	// Trim torn tails and stale terminal lines exactly like the file
	// store's reopen path, then hand out a fresh appender; any previous
	// appender is superseded.
	j.buf = j.buf[:jf.appendOffset]
	j.closed = false
	return jf.info(), &memAppender{store: s, id: id, j: j}, nil
}

// Remove implements Store.
func (s *MemStore) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.journals, id)
	return nil
}

// Export implements Store.
func (s *MemStore) Export(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.journals[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
	}
	return bytes.Clone(j.buf), nil
}

// Import implements Store.
func (s *MemStore) Import(id string, data []byte) error {
	if err := validateImport(id, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journals[id] = &memJournal{buf: bytes.Clone(data)}
	return nil
}

// memAppender appends canonical lines to its MemStore journal. Owned by
// one campaign actor; the store mutex guards against concurrent map and
// buffer access from other store methods.
type memAppender struct {
	store  *MemStore
	id     string
	j      *memJournal
	broken bool
}

func (a *memAppender) append(line []byte) error {
	a.store.mu.Lock()
	defer a.store.mu.Unlock()
	if a.broken {
		return errJournalDirty
	}
	if cur, ok := a.store.journals[a.id]; !ok || cur != a.j || a.j.closed {
		// Removed, re-imported, or superseded by a later Load: this
		// appender must not write into a journal it no longer owns.
		return fmt.Errorf("serve: journal %q no longer owned by this appender", a.id)
	}
	a.j.buf = append(a.j.buf, line...)
	journalAppends.Inc()
	return nil
}

// AppendObs implements Appender.
func (a *memAppender) AppendObs(o Observation, mv int, fp uint64) error {
	line, err := EncodeJournalObs(o, mv, fp)
	if err != nil {
		return err
	}
	return a.append(line)
}

// AppendFinal implements Appender.
func (a *memAppender) AppendFinal(state, errMsg string, converged bool, mv int, fp uint64) error {
	line, err := EncodeJournalFinal(state, errMsg, converged, mv, fp)
	if err != nil {
		return err
	}
	return a.append(line)
}

// AppendSnapshot implements Appender.
func (a *memAppender) AppendSnapshot(snap Snapshot, final *Final) error {
	buf, err := encodeSnapshotFinal(snap, final)
	if err != nil {
		return err
	}
	return a.append(buf)
}

// Disable implements Appender.
func (a *memAppender) Disable() { a.broken = true }

// Close implements Appender. The journal itself stays in the store.
func (a *memAppender) Close() error {
	a.store.mu.Lock()
	defer a.store.mu.Unlock()
	if cur, ok := a.store.journals[a.id]; ok && cur == a.j {
		a.j.closed = true
	}
	return nil
}

// info converts a loaded journal into the exported read-only view.
func (jf *journalFile) info() *JournalInfo {
	return &JournalInfo{
		ID:           jf.ID,
		Spec:         jf.Spec,
		Observations: jf.Observations,
		Snapshots:    jf.Snapshots,
		Lines:        jf.lines,
		ModelVersion: jf.ModelVersion,
		Fingerprint:  jf.Fingerprint,
		Done:         jf.Done,
		Error:        jf.Error,
		Truncated:    jf.truncated,
	}
}

// --- deterministic campaign id ordering ---

// SortCampaignIDs sorts campaign ids into the deterministic natural
// order every journal scan uses: digit runs compare numerically
// ("c0002" < "c10000" even though a byte-wise sort would reverse them),
// ties break byte-wise. The order is platform-independent — directory
// entry order and file creation order never leak into replay order.
func SortCampaignIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return naturalLess(ids[i], ids[j]) })
}

// naturalLess is a total order on strings that compares maximal digit
// runs by numeric value (leading zeros stripped; ties on value break on
// the raw run, then on the remaining suffix).
func naturalLess(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if isDigit(a[0]) && isDigit(b[0]) {
			an, arest := splitDigits(a)
			bn, brest := splitDigits(b)
			at := strings.TrimLeft(an, "0")
			bt := strings.TrimLeft(bn, "0")
			switch {
			case len(at) != len(bt):
				return len(at) < len(bt)
			case at != bt:
				return at < bt
			case an != bn:
				// Equal numeric value, different zero-padding: fewer
				// leading zeros first, purely to keep the order total.
				return an > bn
			}
			a, b = arest, brest
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// splitDigits splits s into its leading digit run and the rest.
func splitDigits(s string) (digits, rest string) {
	i := 0
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return s[:i], s[i:]
}
