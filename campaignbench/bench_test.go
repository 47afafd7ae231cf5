package main

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"repro/internal/serve"
)

// The tail is the highest whole percentile, capped at 99, that leaves at
// least ten samples beyond its nearest-rank position.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	beyond := func(n int, p float64) int {
		return n - int(math.Ceil(p*float64(n)/100))
	}
	for n := 20; n <= 5000; n++ {
		p := tailPct(n)
		if b := beyond(n, p); b < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, b)
		}
		if p < 99 && beyond(n, p+1) >= 10 {
			t.Fatalf("n=%d: p%g is not the highest qualifying percentile", n, p)
		}
	}
	if p := tailPct(1000); p != 99 {
		t.Fatalf("tailPct(1000) = %g, want 99", p)
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := summarize(xs)
	if s.N != 150 || s.P50 != 75 || s.TailPct != 93 || s.Tail != 140 {
		t.Fatalf("summarize(1..150) = %+v, want p50 75 and p93 = 140 (10 beyond)", s)
	}
}

// driveOnce runs one small campaign on e through a closed-loop client and
// returns its final fingerprint and the answers to a fixed predict batch.
func driveOnce(t *testing.T, e *env, spec serve.CampaignSpec, g *grid, pts [][]float64) (uint64, serve.PredictResponse) {
	t.Helper()
	id, err := e.api.create(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := &loopClient{api: e.api, specs: []serve.CampaignSpec{spec}, order: []int{0}, first: id, answer: g.answer}
	f, err := c.campaign(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.state != serve.StateDone {
		t.Fatalf("campaign did not finish done: %+v", f)
	}
	var pr serve.PredictResponse
	if err := e.api.must("predict", http.MethodPost, "/campaigns/"+id+"/predict", serve.PredictRequest{Points: pts}, "", &pr); err != nil {
		t.Fatal(err)
	}
	return f.fingerprint, pr
}

// The tracing decorators only observe: a traced single node and a traced
// cluster produce the same fingerprint and bit-identical predict answers
// as an untraced node and as the reference drive.
func TestDecoratorsLeaveOutputsBitIdentical(t *testing.T) {
	g, err := performanceGrid()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	spec := campaignSpec(rng, g, "decorated", "variance-reduction", 2, 12, 4)
	var pts [][]float64
	for i := 0; i < 8; i++ {
		pts = append(pts, g.offGrid(rng))
	}
	ref, err := referenceDrive(spec, g.answer)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		name    string
		traced  bool
		cluster bool
	}
	var first serve.PredictResponse
	for i, r := range []run{{"plain node", false, false}, {"traced node", true, false}, {"traced cluster", true, true}} {
		b := &bench{tmp: t.TempDir(), sink: newSink()}
		if r.traced {
			b.rec = newRecorder()
			b.rec.setPhase("window")
		}
		var e *env
		if r.cluster {
			e, err = b.startCluster(b.tmp)
		} else {
			e, err = b.startNode(b.tmp)
		}
		if err != nil {
			t.Fatal(err)
		}
		fp, pr := driveOnce(t, e, spec, g, pts)
		e.close()
		if fp != ref.Fingerprint {
			t.Fatalf("%s: fingerprint %x, reference %x", r.name, fp, ref.Fingerprint)
		}
		if i == 0 {
			first = pr
		}
		for k := range pts {
			if math.Float64bits(float64(pr.Means[k])) != math.Float64bits(float64(first.Means[k])) ||
				math.Float64bits(float64(pr.SDs[k])) != math.Float64bits(float64(first.SDs[k])) {
				t.Fatalf("%s: predict answer %d differs from the plain node", r.name, k)
			}
		}
		if r.traced {
			names := map[string]bool{}
			for _, s := range b.rec.inPhase("window") {
				names[s.Name] = true
			}
			want := []string{"client.observe", "serve.http.observe", "serve.http.predict", "serve.journal.append"}
			if r.cluster {
				want = append(want, "ring.router.observe", "ring.forward.observe", "ring.ship.ship")
			}
			for _, n := range want {
				if !names[n] {
					got := make([]string, 0, len(names))
					for k := range names {
						got = append(got, k)
					}
					sort.Strings(got)
					t.Fatalf("%s: no %s span recorded; got %v", r.name, n, got)
				}
			}
		}
	}
}
