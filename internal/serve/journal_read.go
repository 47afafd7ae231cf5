package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// JournalInfo is the read-only view of one campaign checkpoint, exposed
// to tools outside the service: surrogate training (internal/surrogate)
// and load replay (cmd/alload) consume recorded campaigns through it,
// and Store implementations return it from Load. Observations appear in
// append order; entries recorded by servers that predate X recording
// carry a nil X.
type JournalInfo struct {
	// ID is the campaign id the journal belongs to.
	ID string
	// Spec is the campaign spec the journal's header pinned.
	Spec CampaignSpec
	// Observations is the accepted (x, y, cost) stream.
	Observations []Observation
	// Snapshots holds the newest snapshot records (at most two, oldest
	// first), each covering at most len(Observations) observations.
	Snapshots []Snapshot
	// Lines counts the complete records kept — header, observations,
	// snapshots — which is the index of the next record appended.
	Lines int
	// ModelVersion and Fingerprint pin the model identity at the last
	// complete observation — the integrity check replay must reproduce.
	ModelVersion int
	Fingerprint  uint64
	// Done reports whether the journal carries a terminal "done" line.
	Done bool
	// Error is the terminal error message, if the campaign failed.
	Error string
	// Truncated reports that a torn tail was dropped during the load.
	Truncated bool
}

// ReadJournal loads one campaign checkpoint for offline consumption.
// It applies exactly the crash-recovery rules the server's resume path
// uses: a torn or unparsable final line is dropped (Truncated reports
// it), mid-file corruption is an error.
func ReadJournal(path string) (*JournalInfo, error) {
	jf, err := loadJournal(path)
	if err != nil {
		return nil, err
	}
	return jf.info(), nil
}

// ReadJournalDir loads every campaign journal in dir (the layout a
// Manager's CheckpointDir produces: one <id>.json per campaign), in the
// deterministic natural campaign-id order every journal scan uses (see
// SortCampaignIDs) — directory entry order, file creation order, and
// platform collation never influence the result. Files that fail to
// load are skipped and reported in skipped; an empty directory is not
// an error.
func ReadJournalDir(dir string) (infos []*JournalInfo, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: scan journal dir: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	SortCampaignIDs(ids)
	for _, id := range ids {
		path := filepath.Join(dir, id+".json")
		info, err := ReadJournal(path)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		infos = append(infos, info)
	}
	return infos, skipped, nil
}
