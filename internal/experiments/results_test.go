package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestResultsA4Matches regenerates ablation A4 at full size with
// alrepro's default seed and requires it to match the committed report
// in results/ byte for byte: a change that moves its bits must
// regenerate the report in the open.
func TestResultsA4Matches(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size A4 regeneration skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "A4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := AblationParallel(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := r.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("A4 report differs from results/A4.txt\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
