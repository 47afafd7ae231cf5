package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hpgmg"
	"repro/internal/multigrid"
)

func sample(t *testing.T) *Dataset {
	t.Helper()
	d := New([]string{"size", "np"}, []string{"runtime"})
	rows := []struct {
		x    []float64
		y    []float64
		tag  string
		cost float64
	}{
		{[]float64{100, 1}, []float64{1.5}, "poisson1", 1.5},
		{[]float64{200, 2}, []float64{2.5}, "poisson1", 5.0},
		{[]float64{100, 4}, []float64{0.5}, "poisson2", 2.0},
		{[]float64{400, 1}, []float64{6.0}, "poisson2", 6.0},
	}
	for _, r := range rows {
		if err := d.AddRow(r.x, r.y, map[string]string{"operator": r.tag}, r.cost); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddRowAndAccessors(t *testing.T) {
	d := sample(t)
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.Var("size"); got[3] != 400 {
		t.Fatalf("Var(size) = %v", got)
	}
	if got := d.Resp("runtime"); got[1] != 2.5 {
		t.Fatalf("Resp = %v", got)
	}
	if got := d.Tag("operator"); got[2] != "poisson2" {
		t.Fatalf("Tag = %v", got)
	}
	if got := d.Cost(); got[1] != 5.0 {
		t.Fatalf("Cost = %v", got)
	}
	if got := d.Row(1); got[0] != 200 || got[1] != 2 {
		t.Fatalf("Row = %v", got)
	}
	if d.RespAt("runtime", 3) != 6.0 {
		t.Fatal("RespAt")
	}
	if d.CostAt(0) != 1.5 {
		t.Fatal("CostAt")
	}
}

func TestAddRowValidation(t *testing.T) {
	d := New([]string{"a"}, []string{"y"})
	if err := d.AddRow([]float64{1, 2}, []float64{1}, nil, 0); err == nil {
		t.Fatal("expected var count error")
	}
	if err := d.AddRow([]float64{1}, nil, nil, 0); err == nil {
		t.Fatal("expected resp count error")
	}
}

func TestLateTagBackfills(t *testing.T) {
	d := New([]string{"a"}, []string{"y"})
	d.AddRow([]float64{1}, []float64{1}, nil, 0)
	d.AddRow([]float64{2}, []float64{2}, map[string]string{"op": "x"}, 0)
	col := d.Tag("op")
	if col[0] != "" || col[1] != "x" {
		t.Fatalf("Tag backfill = %v", col)
	}
}

func TestWhereTagAndVar(t *testing.T) {
	d := sample(t)
	p1 := d.WhereTag("operator", "poisson1")
	if p1.Len() != 2 {
		t.Fatalf("WhereTag len = %d", p1.Len())
	}
	s100 := d.WhereVar("size", 100)
	if s100.Len() != 2 {
		t.Fatalf("WhereVar len = %d", s100.Len())
	}
	both := d.WhereTag("operator", "poisson1").WhereVar("size", 100)
	if both.Len() != 1 || both.Resp("runtime")[0] != 1.5 {
		t.Fatal("chained filters wrong")
	}
}

func TestProject(t *testing.T) {
	d := sample(t)
	p := d.Project("np")
	if len(p.VarNames()) != 1 || p.VarNames()[0] != "np" {
		t.Fatalf("VarNames = %v", p.VarNames())
	}
	if p.Len() != 4 || p.Var("np")[2] != 4 {
		t.Fatal("Project lost rows")
	}
	// Responses, tags and cost preserved.
	if p.Resp("runtime")[3] != 6.0 || p.Tag("operator")[0] != "poisson1" || p.Cost()[1] != 5.0 {
		t.Fatal("Project dropped non-var columns")
	}
}

func TestLogTransforms(t *testing.T) {
	d := sample(t)
	if err := d.LogVar("size"); err != nil {
		t.Fatal(err)
	}
	if got := d.Var("size")[0]; math.Abs(got-2) > 1e-12 {
		t.Fatalf("log10(100) = %g", got)
	}
	if err := d.LogResp("runtime"); err != nil {
		t.Fatal(err)
	}
	if got := d.Resp("runtime")[3]; math.Abs(got-math.Log10(6)) > 1e-12 {
		t.Fatalf("log10(6) = %g", got)
	}
	if err := d.LogVar("nope"); err == nil {
		t.Fatal("expected unknown-variable error")
	}
	bad := New([]string{"a"}, []string{"y"})
	bad.AddRow([]float64{-1}, []float64{1}, nil, 0)
	if err := bad.LogVar("a"); err == nil {
		t.Fatal("expected non-positive error")
	}
}

func TestMatrixAndRespVec(t *testing.T) {
	d := sample(t)
	m := d.Matrix(nil)
	if m.Rows() != 4 || m.Cols() != 2 {
		t.Fatalf("Matrix %dx%d", m.Rows(), m.Cols())
	}
	m2 := d.Matrix([]int{3, 0})
	if m2.At(0, 0) != 400 || m2.At(1, 0) != 100 {
		t.Fatal("row selection wrong")
	}
	y := d.RespVec("runtime", []int{2})
	if len(y) != 1 || y[0] != 0.5 {
		t.Fatalf("RespVec = %v", y)
	}
	if len(d.RespVec("runtime", nil)) != 4 {
		t.Fatal("nil rows should mean all")
	}
}

func TestRandomPartition(t *testing.T) {
	d := sample(t)
	// Extend to a workable size.
	for i := 0; i < 46; i++ {
		d.AddRow([]float64{float64(i), 1}, []float64{1}, map[string]string{"operator": "poisson1"}, 1)
	}
	rng := rand.New(rand.NewSource(1))
	p, err := RandomPartition(d, PartitionConfig{NInitial: 1, TestFrac: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Initial) != 1 {
		t.Fatalf("Initial = %d", len(p.Initial))
	}
	wantTest := int(float64(d.Len()-1) * 0.2)
	if len(p.Test) != wantTest {
		t.Fatalf("Test = %d, want %d", len(p.Test), wantTest)
	}
	if len(p.Initial)+len(p.Active)+len(p.Test) != d.Len() {
		t.Fatal("partition does not cover dataset")
	}
	if err := p.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPartitionTooSmall(t *testing.T) {
	d := New([]string{"a"}, []string{"y"})
	d.AddRow([]float64{1}, []float64{1}, nil, 0)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomPartition(d, PartitionConfig{NInitial: 1, TestFrac: 0.2}, rng); err == nil {
		t.Fatal("expected error for too-small dataset")
	}
}

func TestPartitionValidateCatchesOverlap(t *testing.T) {
	d := sample(t)
	p := Partition{Initial: []int{0}, Active: []int{0, 1}, Test: []int{2}}
	if err := p.Validate(d); err == nil {
		t.Fatal("expected overlap error")
	}
	p = Partition{Initial: []int{99}}
	if err := p.Validate(d); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip %d rows, want %d", back.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.Row(i), back.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d var %d: %g vs %g", i, j, a[j], b[j])
			}
		}
		if d.RespAt("runtime", i) != back.RespAt("runtime", i) {
			t.Fatalf("row %d response mismatch", i)
		}
		if d.CostAt(i) != back.CostAt(i) {
			t.Fatalf("row %d cost mismatch", i)
		}
	}
	if back.Tag("operator")[2] != "poisson2" {
		t.Fatal("tag lost in round trip")
	}
}

func TestReadCSVBadCell(t *testing.T) {
	in := bytes.NewBufferString("a,resp:y,cost\nnotanumber,1,1\n")
	if _, err := ReadCSV(in); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestFromPerformanceAndPower(t *testing.T) {
	results := []hpgmg.Result{
		{
			Config:   hpgmg.Config{Op: multigrid.Poisson1, GlobalSize: 1000, NP: 4, FreqGHz: 2.4},
			RuntimeS: 2.0, EnergyJ: 500, EnergyOK: true,
		},
		{
			Config:   hpgmg.Config{Op: multigrid.Poisson2, GlobalSize: 8000, NP: 8, FreqGHz: 1.2},
			RuntimeS: 10.0, EnergyJ: 4000, EnergyOK: true,
		},
	}
	perf, err := FromPerformance(results)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Len() != 2 || perf.RespAt(RespRuntime, 1) != 10 {
		t.Fatal("FromPerformance wrong")
	}
	if perf.CostAt(0) != 8.0 { // 2 s × 4 cores
		t.Fatalf("cost = %g", perf.CostAt(0))
	}
	if perf.Tag(TagOperator)[1] != "poisson2" {
		t.Fatal("operator tag wrong")
	}

	pow, err := FromPower(results)
	if err != nil {
		t.Fatal(err)
	}
	if pow.RespAt(RespEnergy, 0) != 500 {
		t.Fatal("FromPower energy wrong")
	}
	results[0].EnergyOK = false
	if _, err := FromPower(results); err == nil {
		t.Fatal("expected error for unusable energy")
	}
}

// Property: Filter with an always-true predicate is identity on length
// and content; always-false yields an empty dataset.
func TestFilterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New([]string{"x"}, []string{"y"})
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			d.AddRow([]float64{rng.NormFloat64()}, []float64{rng.NormFloat64()}, nil, rng.Float64())
		}
		all := d.Filter(func(int) bool { return true })
		none := d.Filter(func(int) bool { return false })
		if all.Len() != n || none.Len() != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if all.Row(i)[0] != d.Row(i)[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitions from the same seed are identical; different seeds
// differ (almost surely) — the mechanism behind the paper's batch runs.
func TestPartitionDeterminismProperty(t *testing.T) {
	d := New([]string{"x"}, []string{"y"})
	for i := 0; i < 100; i++ {
		d.AddRow([]float64{float64(i)}, []float64{0}, nil, 0)
	}
	f := func(seed int64) bool {
		p1, err1 := RandomPartition(d, PartitionConfig{}, rand.New(rand.NewSource(seed)))
		p2, err2 := RandomPartition(d, PartitionConfig{}, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(p1.Active) != len(p2.Active) {
			return false
		}
		for i := range p1.Active {
			if p1.Active[i] != p2.Active[i] {
				return false
			}
		}
		return p1.Initial[0] == p2.Initial[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A non-finite response cell must be rejected at load time with an
// error that names the offending data row and column.
func TestReadCSVRejectsNonFiniteResponse(t *testing.T) {
	for _, cell := range []string{"NaN", "Inf", "+Inf", "-Inf", "nan", "1e309"} {
		in := "a,resp:y,cost\n1,2,3\n4," + cell + ",6\n"
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil {
			t.Fatalf("ReadCSV accepted response %q", cell)
		}
		msg := err.Error()
		if !strings.Contains(msg, `column "y"`) || !strings.Contains(msg, "row 2") {
			t.Fatalf("error for %q lacks row/column: %v", cell, err)
		}
	}
	// Non-finite variables and costs are untouched by this guard only
	// if they parse; the finite happy path still loads.
	d, err := ReadCSV(strings.NewReader("a,resp:y,cost\n1,2,3\n"))
	if err != nil || d.Len() != 1 {
		t.Fatalf("finite CSV rejected: %v", err)
	}
}
