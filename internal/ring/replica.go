package ring

import (
	"bytes"
	"hash/maphash"

	"repro/internal/intern"
	"repro/internal/obs"
)

// ringRowRuns counts the distinct candidate-row runs the process holds
// for its replicas (see OBSERVABILITY.md).
var ringRowRuns = obs.G("ring.replica.row_runs")

// replica is the follower-side buffer for one campaign: the shipped
// journal image plus the count of complete records received. The
// candidate rows of the header record, nearly all of a young journal,
// are held once per process for every replica that carries the same
// bytes, so the image is head + rows + tail.
type replica struct {
	head  []byte  // image bytes before the header's candidate rows
	rows  *rowRun // the candidate rows, shared; nil when none were found
	tail  []byte  // image bytes after them, later records included
	count int
}

// newReplica holds a journal image of count records. It finds the
// header's candidate rows by a byte scan, not a JSON parse, and keeps
// its own copy of everything else, so it does not pin data.
func newReplica(data []byte, count int) *replica {
	lo, hi := rowsSpan(data)
	if hi == 0 {
		return &replica{tail: bytes.Clone(data), count: count}
	}
	return &replica{
		head:  bytes.Clone(data[:lo]),
		rows:  internRows(data[lo:hi]),
		tail:  bytes.Clone(data[hi:]),
		count: count,
	}
}

// image renders the replica's journal bytes, byte for byte as shipped,
// into a new slice.
func (r *replica) image() []byte {
	var rows []byte
	if r.rows != nil {
		rows = r.rows.b
	}
	out := make([]byte, 0, len(r.head)+len(rows)+len(r.tail))
	return append(append(append(out, r.head...), rows...), r.tail...)
}

// drop gives back the replica's share of its candidate rows.
func (r *replica) drop() {
	if r.rows != nil {
		r.rows.release()
	}
}

// rowsKey opens the candidate rows of a client campaign's header.
var rowsKey = []byte(`"candidates":[`)

// rowsSpan locates the candidate rows in the first line of a journal
// image: the JSON array after rowsKey, brackets included, as data[lo:hi].
// hi is 0 when there is none. A quote inside a JSON string is escaped,
// so rowsKey cannot match inside one; the rows are numbers, so the array
// ends where its brackets balance. Rendering head + rows + tail gives the
// image back whatever the span, so the scan only decides what is shared.
func rowsSpan(data []byte) (lo, hi int) {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		end = len(data)
	}
	i := bytes.Index(data[:end], rowsKey)
	if i < 0 {
		return 0, 0
	}
	lo = i + len(rowsKey) - 1
	depth := 0
	for j := lo; j < end; j++ {
		switch data[j] {
		case '[':
			depth++
		case ']':
			if depth--; depth == 0 {
				return lo, j + 1
			}
		}
	}
	return 0, 0
}

// rowRun is one distinct run of candidate-row bytes, shared by every
// replica in the process that holds it.
type rowRun struct {
	b   []byte
	sum uint64
}

// rowRuns is the process-wide table of rowRuns, keyed by a hash of the
// bytes and compared byte for byte on a hit.
var (
	rowRuns    = intern.New[*rowRun](ringRowRuns)
	rowRunSeed = maphash.MakeSeed()
)

// internRows returns the shared run holding the bytes of b (copied on
// the first use), with one more reference.
func internRows(b []byte) *rowRun {
	sum := maphash.Bytes(rowRunSeed, b)
	r, _ := rowRuns.Get(sum, func(r *rowRun) bool { return bytes.Equal(r.b, b) },
		func() *rowRun { return &rowRun{b: bytes.Clone(b), sum: sum} })
	return r
}

// release drops one reference; the run leaves the table with its last.
func (r *rowRun) release() { rowRuns.Release(r.sum, r) }
