// Package intern keeps process-wide tables of immutable values, one
// copy per distinct contents, each shared by all of its holders and
// reference-counted so that it leaves its table with its last holder.
package intern

import (
	"slices"
	"sync"

	"repro/internal/obs"
)

// Table holds values found by a 64-bit digest of their contents and
// compared in full on a hit. Its methods are safe for concurrent use.
type Table[T comparable] struct {
	mu   sync.Mutex
	m    map[uint64][]*entry[T]
	n    int
	size *obs.Gauge // entries held, when not nil
}

type entry[T comparable] struct {
	v    T
	refs int
}

// New returns an empty table that keeps its entry count in size (nil:
// none).
func New[T comparable](size *obs.Gauge) *Table[T] {
	return &Table[T]{m: map[uint64][]*entry[T]{}, size: size}
}

// Get returns the value under digest sum that same accepts, with one
// more reference, or else a new value from mk, with its first; hit
// reports which.
func (t *Table[T]) Get(sum uint64, same func(T) bool, mk func() T) (v T, hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.m[sum] {
		if same(e.v) {
			e.refs++
			return e.v, true
		}
	}
	e := &entry[T]{v: mk(), refs: 1}
	t.m[sum] = append(t.m[sum], e)
	t.resize(+1)
	return e.v, false
}

// Release gives back one reference to v, which Get returned under sum;
// the value leaves the table with its last reference.
func (t *Table[T]) Release(sum uint64, v T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.m[sum]
	i := slices.IndexFunc(list, func(e *entry[T]) bool { return e.v == v })
	if i < 0 {
		panic("intern: release of a value the table does not hold")
	}
	if list[i].refs--; list[i].refs > 0 {
		return
	}
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(t.m, sum)
	} else {
		t.m[sum] = list
	}
	t.resize(-1)
}

// Len returns the number of values the table holds.
func (t *Table[T]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func (t *Table[T]) resize(d int) {
	t.n += d
	if t.size != nil {
		t.size.Set(float64(t.n))
	}
}
