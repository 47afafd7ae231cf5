// Package dataset provides the tabular container the Active Learning
// pipeline consumes: a design matrix of controlled variables, one or more
// response columns, optional categorical tags (e.g. the HPGMG operator),
// per-job costs, log transforms, subsetting, and the Initial/Active/Test
// partitioning scheme of §IV.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Dataset is a column-oriented table of experiments. Rows are jobs;
// Vars are numeric controlled variables; Resps are numeric responses;
// Tags are categorical attributes; Cost is the per-job experiment cost
// (core-seconds in this study).
type Dataset struct {
	varNames  []string
	respNames []string
	vars      [][]float64 // column major: vars[v][row]
	resps     [][]float64
	tags      map[string][]string
	cost      []float64
	n         int
}

// New creates an empty dataset with the given variable and response
// column names.
func New(varNames, respNames []string) *Dataset {
	d := &Dataset{
		varNames:  append([]string(nil), varNames...),
		respNames: append([]string(nil), respNames...),
		vars:      make([][]float64, len(varNames)),
		resps:     make([][]float64, len(respNames)),
		tags:      map[string][]string{},
	}
	return d
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return d.n }

// VarNames returns the controlled-variable column names.
func (d *Dataset) VarNames() []string { return append([]string(nil), d.varNames...) }

// RespNames returns the response column names.
func (d *Dataset) RespNames() []string { return append([]string(nil), d.respNames...) }

// TagNames returns the categorical column names in unspecified order.
func (d *Dataset) TagNames() []string {
	out := make([]string, 0, len(d.tags))
	for k := range d.tags {
		out = append(out, k)
	}
	return out
}

// AddRow appends one job. x and y must match the column counts; tags may
// be nil; cost is the job's experiment cost.
func (d *Dataset) AddRow(x, y []float64, tags map[string]string, cost float64) error {
	if len(x) != len(d.varNames) {
		return fmt.Errorf("dataset: row has %d vars, want %d", len(x), len(d.varNames))
	}
	if len(y) != len(d.respNames) {
		return fmt.Errorf("dataset: row has %d responses, want %d", len(y), len(d.respNames))
	}
	for i, v := range x {
		d.vars[i] = append(d.vars[i], v)
	}
	for i, v := range y {
		d.resps[i] = append(d.resps[i], v)
	}
	d.cost = append(d.cost, cost)
	for k := range d.tags {
		d.tags[k] = append(d.tags[k], tags[k])
	}
	for k, v := range tags {
		if _, ok := d.tags[k]; !ok {
			// New tag column: backfill earlier rows with "".
			col := make([]string, d.n, d.n+1)
			d.tags[k] = append(col, v)
		}
	}
	d.n++
	return nil
}

func (d *Dataset) varIndex(name string) int {
	for i, v := range d.varNames {
		if v == name {
			return i
		}
	}
	return -1
}

func (d *Dataset) respIndex(name string) int {
	for i, v := range d.respNames {
		if v == name {
			return i
		}
	}
	return -1
}

// Var returns a copy of the named variable column.
func (d *Dataset) Var(name string) []float64 {
	i := d.varIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("dataset: no variable %q", name))
	}
	return append([]float64(nil), d.vars[i]...)
}

// Resp returns a copy of the named response column.
func (d *Dataset) Resp(name string) []float64 {
	i := d.respIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("dataset: no response %q", name))
	}
	return append([]float64(nil), d.resps[i]...)
}

// Tag returns a copy of the named tag column.
func (d *Dataset) Tag(name string) []string {
	col, ok := d.tags[name]
	if !ok {
		panic(fmt.Sprintf("dataset: no tag %q", name))
	}
	return append([]string(nil), col...)
}

// Cost returns a copy of the per-job cost column.
func (d *Dataset) Cost() []float64 { return append([]float64(nil), d.cost...) }

// Row returns the variable values of row i.
func (d *Dataset) Row(i int) []float64 {
	out := make([]float64, len(d.varNames))
	for v := range d.vars {
		out[v] = d.vars[v][i]
	}
	return out
}

// RespAt returns response column r (by name) at row i.
func (d *Dataset) RespAt(name string, i int) float64 {
	r := d.respIndex(name)
	if r < 0 {
		panic(fmt.Sprintf("dataset: no response %q", name))
	}
	return d.resps[r][i]
}

// CostAt returns the cost of row i.
func (d *Dataset) CostAt(i int) float64 { return d.cost[i] }

// Filter returns a new dataset with the rows for which keep returns true.
func (d *Dataset) Filter(keep func(row int) bool) *Dataset {
	out := New(d.varNames, d.respNames)
	for k := range d.tags {
		out.tags[k] = nil
	}
	for i := 0; i < d.n; i++ {
		if !keep(i) {
			continue
		}
		for v := range d.vars {
			out.vars[v] = append(out.vars[v], d.vars[v][i])
		}
		for r := range d.resps {
			out.resps[r] = append(out.resps[r], d.resps[r][i])
		}
		for k := range d.tags {
			out.tags[k] = append(out.tags[k], d.tags[k][i])
		}
		out.cost = append(out.cost, d.cost[i])
		out.n++
	}
	return out
}

// WhereTag returns the subset whose tag column equals value.
func (d *Dataset) WhereTag(name, value string) *Dataset {
	col, ok := d.tags[name]
	if !ok {
		panic(fmt.Sprintf("dataset: no tag %q", name))
	}
	return d.Filter(func(i int) bool { return col[i] == value })
}

// WhereVar returns the subset whose variable column equals value (exact).
func (d *Dataset) WhereVar(name string, value float64) *Dataset {
	i := d.varIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("dataset: no variable %q", name))
	}
	col := d.vars[i]
	return d.Filter(func(r int) bool { return col[r] == value })
}

// Project returns a dataset containing only the named variable columns
// (responses, tags, and cost are preserved). Used to build the 1-D and
// 2-D study subsets of §V-B.
func (d *Dataset) Project(keepVars ...string) *Dataset {
	idx := make([]int, len(keepVars))
	for i, name := range keepVars {
		idx[i] = d.varIndex(name)
		if idx[i] < 0 {
			panic(fmt.Sprintf("dataset: no variable %q", name))
		}
	}
	out := New(keepVars, d.respNames)
	for i, v := range idx {
		out.vars[i] = append([]float64(nil), d.vars[v]...)
	}
	for r := range d.resps {
		out.resps[r] = append([]float64(nil), d.resps[r]...)
	}
	for k, col := range d.tags {
		out.tags[k] = append([]string(nil), col...)
	}
	out.cost = append([]float64(nil), d.cost...)
	out.n = d.n
	return out
}

// LogVar replaces the named variable column with log10(values) in place.
// Non-positive entries are an error.
func (d *Dataset) LogVar(name string) error {
	i := d.varIndex(name)
	if i < 0 {
		return fmt.Errorf("dataset: no variable %q", name)
	}
	return logColumn(d.vars[i], name)
}

// LogResp replaces the named response column with log10(values) in place.
func (d *Dataset) LogResp(name string) error {
	i := d.respIndex(name)
	if i < 0 {
		return fmt.Errorf("dataset: no response %q", name)
	}
	return logColumn(d.resps[i], name)
}

func logColumn(col []float64, name string) error {
	for _, v := range col {
		if v <= 0 {
			return fmt.Errorf("dataset: log transform of %q hits non-positive value %g", name, v)
		}
	}
	for i, v := range col {
		col[i] = math.Log10(v)
	}
	return nil
}

// Matrix returns the design matrix over the given rows (all rows when
// rows is nil), one job per output row.
func (d *Dataset) Matrix(rows []int) *mat.Dense {
	if rows == nil {
		rows = make([]int, d.n)
		for i := range rows {
			rows[i] = i
		}
	}
	m := mat.New(len(rows), len(d.varNames))
	for r, idx := range rows {
		for v := range d.vars {
			m.Set(r, v, d.vars[v][idx])
		}
	}
	return m
}

// RespVec returns the named response over the given rows (all rows when
// rows is nil).
func (d *Dataset) RespVec(name string, rows []int) []float64 {
	ri := d.respIndex(name)
	if ri < 0 {
		panic(fmt.Sprintf("dataset: no response %q", name))
	}
	if rows == nil {
		return append([]float64(nil), d.resps[ri]...)
	}
	out := make([]float64, len(rows))
	for i, idx := range rows {
		out[i] = d.resps[ri][idx]
	}
	return out
}
