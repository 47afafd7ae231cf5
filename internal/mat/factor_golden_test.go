package mat

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// bitsDigest is the FNV-1a hash of the IEEE-754 bits of vs, in order.
func bitsDigest(vs ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestFactorGoldenBits pins the exact bits every factor kernel produces
// on fixed seeded inputs: the unblocked and blocked factorizations, a
// chain of bordered extensions, rank-one update and downdate, the solves
// built on the factor, and the jitter NewCholeskyJitter settles on. The
// selection traces of the AL loop are fingerprinted, so a kernel that
// reorders or fuses a single multiply-add changes them; this test names
// the kernel that moved.
func TestFactorGoldenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	const n = 37
	a := gramSPD(rng, n, 1e-2)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}

	big := randomSPD(rng, 300)
	blocked, err := NewCholeskyParallel(big, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Extend the factor of a's leading 30×30 block back to order n.
	const lead = 30
	la := New(lead, lead)
	for i := 0; i < lead; i++ {
		copy(la.RawRow(i), a.RawRow(i)[:lead])
	}
	ext, err := NewCholesky(la)
	if err != nil {
		t.Fatal(err)
	}
	for m := lead; m < n; m++ {
		border := make(Vec, m)
		for i := range border {
			border[i] = a.At(i, m)
		}
		if ext, err = ext.Extended(border, a.At(m, m)); err != nil {
			t.Fatalf("Extended to %d: %v", m+1, err)
		}
	}

	v := randVec(rng, n)
	up := ch.RankOneUpdate(v)
	down, err := up.RankOneDowndate(v)
	if err != nil {
		t.Fatal(err)
	}
	w := randVec(rng, n)
	for i := range w {
		w[i] *= 1e-3
	}
	downW, err := ch.RankOneDowndate(w)
	if err != nil {
		t.Fatal(err)
	}

	b := randVec(rng, n)
	x := ch.SolveVec(b)
	inv := ch.InverseInto(New(n, n))
	b4 := make([]float64, 4*n)
	for i := range b4 {
		b4[i] = rng.NormFloat64()
	}
	y4 := make([]float64, 4*n)
	forwardSubst4(ch, y4, b4)

	u := Vec{1, 2, 3, 4, 5}
	jch, jitter, err := NewCholeskyJitter(outer(u, u), 0, 20)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"NewCholesky n=37", bitsDigest(factorEntries(ch)), 0x27cb5f56ff504fa0},
		{"NewCholeskyParallel n=300 nb=64", bitsDigest(factorEntries(blocked)), 0x43c90069da73cd40},
		{"Extended 30→37", bitsDigest(factorEntries(ext)), 0x248d86d061e432ce},
		{"RankOneUpdate", bitsDigest(factorEntries(up)), 0x6ecf8ed3d91fcfe8},
		{"RankOneDowndate of update", bitsDigest(factorEntries(down)), 0x6d706bea064d9d94},
		{"RankOneDowndate", bitsDigest(factorEntries(downW)), 0x298fe2f9c7bab254},
		{"SolveVec", bitsDigest(x), 0x19a182b80e4f04a9},
		{"InverseInto", bitsDigest(inv.Raw()), 0x467405a6e1d0734f},
		{"LogDet", bitsDigest([]float64{ch.LogDet()}), 0x3a5a6ce5bab858d9},
		{"ForwardSubst4Into", bitsDigest(y4), 0x89db58cc6757a948},
		{"NewCholeskyJitter jitter", bitsDigest([]float64{jitter}), 0xa201eecbd811248f},
		{"NewCholeskyJitter factor", bitsDigest(factorEntries(jch)), 0xa2f2e22cab56a09d},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
}
