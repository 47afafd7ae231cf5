package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Journal corpus building blocks: a valid v2 header/obs/final line set
// the fuzzer mutates into torn tails, duplicate records, and
// interleaved fragments.
const (
	fuzzHeader = `{"h":{"version":2,"id":"c0001","spec":{"source":"client","candidates":[[0],[1]],"seeds":[0],"strategy":"variance-reduction"}}}`
	fuzzObs1   = `{"o":{"x":[0],"y":1,"cost":1,"key":"k1","mv":1,"fp":"ab12"}}`
	fuzzObs2   = `{"o":{"x":[1],"y":2,"cost":1.5,"key":"k2","mv":2,"fp":"cd34"}}`
	fuzzFinal  = `{"f":{"state":"done","converged":true,"mv":2,"fp":"cd34"}}`
	fuzzSnap1  = `{"s":{"n":1,"mv":1,"fp":"ab12","session":{"version":1,"strategy":"variance-reduction","response":"y","seed":1,"draws":0,"next_iter":1,"train":[0],"train_y":[1],"pool":null,"cum_cost":1,"amsd_hist":null,"n_seeds":1,"refit_hyper":[0,0],"refit_log_sn":-2,"refit_n":1,"has_pending":false,"pending_y":0,"records":null}}}`
	fuzzSnap2  = `{"s":{"n":2,"mv":2,"fp":"cd34","session":{"version":1,"strategy":"variance-reduction","response":"y","seed":1,"draws":0,"next_iter":2,"train":[0,1],"train_y":[1,2],"pool":null,"cum_cost":2.5,"amsd_hist":[0.5],"n_seeds":1,"refit_hyper":[0,0],"refit_log_sn":-2,"refit_n":1,"has_pending":true,"pending_y":2,"records":[{"iter":1,"row":1,"sd_chosen":0.5,"amsd":0.5,"rmse":null,"coverage":null,"cum_cost":2.5,"lml":-1,"noise":0.1,"train":2}]}}}`
)

func journalBytes(lines ...string) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// FuzzJournalLoad feeds adversarial checkpoint files to loadJournal —
// the crash-recovery path every boot runs. Invalid input must be
// rejected with an error, never a panic; accepted journals must satisfy
// the recovery contract: a usable campaign id, an appendOffset inside
// the file, no snapshot covering more observations than the loaded
// prefix holds, and a prefix-consistency invariant — truncating the
// file at appendOffset and reloading yields the same observations and
// snapshots with no truncation, since that byte range is exactly the
// replayable log resume appends after.
func FuzzJournalLoad(f *testing.F) {
	// A complete, healthy journal.
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzObs2, fuzzFinal))
	// Crash artifacts: torn tails in every flavor.
	f.Add(append(journalBytes(fuzzHeader, fuzzObs1), []byte(fuzzObs2[:20])...)) // open tail
	f.Add(append(journalBytes(fuzzHeader), []byte(fuzzObs1[:10]+"\n")...))      // tear ending in a fake newline
	f.Add(journalBytes(fuzzHeader[:len(fuzzHeader)/2]))                         // torn header
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzObs2, fuzzFinal)[:40])         // mid-header cut
	// Duplicate and out-of-order records.
	f.Add(journalBytes(fuzzHeader, fuzzHeader, fuzzObs1))         // duplicate header
	f.Add(journalBytes(fuzzObs1, fuzzHeader))                     // header not first
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzObs1, fuzzObs1)) // duplicate idempotency keys
	f.Add(journalBytes(fuzzHeader, fuzzFinal, fuzzObs1))          // observation after terminal line
	f.Add(journalBytes(fuzzHeader, fuzzFinal, fuzzFinal))         // duplicate terminal lines
	// Interleaved partial writes: two records sharing one line, a
	// record split by a stray newline, fragments glued mid-field.
	f.Add(journalBytes(fuzzHeader, fuzzObs1[:25]+fuzzObs2[25:]))
	f.Add(journalBytes(fuzzHeader, fuzzObs1+fuzzObs2))
	f.Add(journalBytes(fuzzHeader, fuzzObs1[:30], fuzzObs1[30:]))
	// Wrong version, empty record, junk.
	f.Add(journalBytes(strings.Replace(fuzzHeader, `"version":2`, `"version":1`, 1), fuzzObs1))
	f.Add(journalBytes(fuzzHeader, `{}`))
	f.Add([]byte{})
	f.Add([]byte("not a journal\n"))
	f.Add([]byte("\n\n\n"))
	// Snapshot lines: mid-journal, terminal (in the final line's write),
	// a torn snapshot tail, a snapshot followed by a torn observation,
	// and one claiming more observations than precede it.
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzSnap1, fuzzObs2))
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzSnap1, fuzzObs2, fuzzSnap2, fuzzFinal))
	f.Add(append(journalBytes(fuzzHeader, fuzzObs1, fuzzObs2), []byte(fuzzSnap2[:len(fuzzSnap2)/2])...))
	f.Add(append(journalBytes(fuzzHeader, fuzzObs1, fuzzSnap1), []byte(fuzzObs2[:20])...))
	f.Add(journalBytes(fuzzHeader, fuzzObs1, fuzzSnap2, fuzzObs2))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input: spec validation cost would dominate")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "c0001.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jf, err := loadJournal(path)
		if err != nil {
			return // rejected cleanly — the expected path for corruption
		}

		if jf.ID == "" {
			t.Fatal("accepted journal has no campaign id")
		}
		if err := jf.Spec.Validate(); err != nil {
			t.Fatalf("accepted journal carries an invalid spec: %v", err)
		}
		if jf.appendOffset <= 0 || jf.appendOffset > int64(len(data)) {
			t.Fatalf("appendOffset %d outside (0, %d]", jf.appendOffset, len(data))
		}
		if len(jf.Snapshots) > keptSnapshots {
			t.Fatalf("load kept %d snapshots, at most %d", len(jf.Snapshots), keptSnapshots)
		}
		for _, sn := range jf.Snapshots {
			if sn.N < 0 || sn.N > len(jf.Observations) {
				t.Fatalf("snapshot covers %d observations, the loaded prefix holds %d", sn.N, len(jf.Observations))
			}
		}
		if got := bytes.Count(data[:jf.appendOffset], []byte("\n")); got != jf.lines {
			t.Fatalf("%d lines before appendOffset, load counted %d", got, jf.lines)
		}

		// Prefix consistency: the bytes before appendOffset are exactly
		// the replayable record stream. Reloading them must reproduce the
		// same campaign with no truncation — this is what openJournalAt
		// relies on when it truncates the file to appendOffset on resume.
		prefix := filepath.Join(dir, "prefix.json")
		if err := os.WriteFile(prefix, data[:jf.appendOffset], 0o644); err != nil {
			t.Fatal(err)
		}
		jf2, err := loadJournal(prefix)
		if err != nil {
			t.Fatalf("replayable prefix failed to load: %v", err)
		}
		if jf2.truncated {
			t.Fatal("replayable prefix reported a torn tail")
		}
		if jf2.ID != jf.ID {
			t.Fatalf("prefix reload changed id %q → %q", jf.ID, jf2.ID)
		}
		if len(jf2.Observations) != len(jf.Observations) {
			t.Fatalf("prefix reload changed observation count %d → %d",
				len(jf.Observations), len(jf2.Observations))
		}
		if jf2.ModelVersion != jf.ModelVersion || jf2.Fingerprint != jf.Fingerprint {
			t.Fatalf("prefix reload changed model pin (%d, %x) → (%d, %x)",
				jf.ModelVersion, jf.Fingerprint, jf2.ModelVersion, jf2.Fingerprint)
		}
		if len(jf2.Snapshots) != len(jf.Snapshots) || jf2.lines != jf.lines {
			t.Fatalf("prefix reload changed snapshots %d → %d, lines %d → %d",
				len(jf.Snapshots), len(jf2.Snapshots), jf.lines, jf2.lines)
		}
		for i, sn := range jf2.Snapshots {
			if want := jf.Snapshots[i]; sn.N != want.N || sn.ModelVersion != want.ModelVersion ||
				sn.Fingerprint != want.Fingerprint || !bytes.Equal(sn.Session, want.Session) {
				t.Fatalf("prefix reload changed snapshot %d", i)
			}
		}
		for i, o := range jf2.Observations {
			want := jf.Observations[i]
			if o.Y != want.Y || o.Cost != want.Cost || o.Key != want.Key || len(o.X) != len(want.X) {
				t.Fatalf("prefix reload changed observation %d: %+v → %+v", i, want, o)
			}
		}
	})
}
