package intern

import (
	"sync"
	"testing"
)

type val struct{ s string }

// TestTable: equal contents share one value while a holder is left,
// unequal contents under one digest stay apart, and a value leaves the
// table with its last release.
func TestTable(t *testing.T) {
	tab := New[*val](nil)
	get := func(s string) (*val, bool) {
		return tab.Get(1, func(v *val) bool { return v.s == s }, func() *val { return &val{s} })
	}
	a, hit := get("a")
	if hit {
		t.Fatal("hit in an empty table")
	}
	b, hit := get("a")
	if !hit || b != a {
		t.Fatal("equal contents were not shared")
	}
	c, _ := get("c") // same digest, other contents
	if c == a || tab.Len() != 2 {
		t.Fatalf("a collision shared unequal contents (len %d)", tab.Len())
	}
	tab.Release(1, a)
	if again, _ := get("a"); again != a {
		t.Fatal("the value left the table while a holder was left")
	}
	tab.Release(1, a)
	tab.Release(1, a)
	if again, _ := get("a"); again == a {
		t.Fatal("the value stayed in the table after its last release")
	}
	if tab.Len() != 2 {
		t.Fatalf("len %d, want 2", tab.Len())
	}
}

// TestTableConcurrent gets and releases one value from several
// goroutines at once (run it under -race): all share one copy, and it
// leaves the table with the last release.
func TestTableConcurrent(t *testing.T) {
	tab := New[*val](nil)
	get := func() *val {
		v, _ := tab.Get(7, func(v *val) bool { return v.s == "x" }, func() *val { return &val{"x"} })
		return v
	}
	first := get()
	got := make([]*val, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = get()
			tab.Release(7, got[i])
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != first {
			t.Fatalf("holder %d got its own copy", i)
		}
	}
	tab.Release(7, first)
	if tab.Len() != 0 {
		t.Fatalf("len %d after the last release", tab.Len())
	}
}
