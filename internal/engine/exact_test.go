package engine

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactRef computes the correctly rounded sum of vs with math/big at a
// precision wide enough to be exact for any finite float64 inputs.
func exactRef(vs []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	tmp := new(big.Float).SetPrec(2200)
	for _, v := range vs {
		tmp.SetFloat64(v)
		acc.Add(acc, tmp)
	}
	f, _ := acc.Float64()
	return f
}

func sumVia(vs []float64, pieces int) float64 {
	// Split into pieces accumulators, merge in a scrambled order.
	accs := make([]exactFloat, pieces)
	for i, v := range vs {
		accs[i%pieces].Add(v)
	}
	var total exactFloat
	for i := len(accs) - 1; i >= 0; i-- {
		total.Merge(&accs[i])
	}
	return total.Round()
}

func TestExactFloatMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int, expRange int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			v := (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(2*expRange)-expRange))
			vs[i] = v
		}
		return vs
	}
	cases := [][]float64{
		{},
		{0},
		{0.1, 0.2, 0.3},
		{1e300, -1e300, 1},
		{1e16, 1, -1e16}, // cancellation exposes low-order bits
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 4, -math.MaxFloat64 / 2},
		{1, math.Ldexp(1, -53)},    // round-to-even tie
		{1, math.Ldexp(3, -54)},    // just above the tie
		{-2.5, 2.5, -0.125, 0.125}, // exact zero
		gen(1000, 30), gen(1000, 300), gen(4096, 60),
	}
	for ci, vs := range cases {
		want := exactRef(vs)
		for _, pieces := range []int{1, 2, 3, 7, 16} {
			if pieces > len(vs) && len(vs) > 0 {
				continue
			}
			got := sumVia(vs, max(1, pieces))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d pieces %d: got %x (%g), want %x (%g)",
					ci, pieces, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}

func TestExactFloatOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vs := make([]float64, 2000)
	for i := range vs {
		vs[i] = (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(80)-40))
	}
	var fwd exactFloat
	for _, v := range vs {
		fwd.Add(v)
	}
	var rev exactFloat
	for i := len(vs) - 1; i >= 0; i-- {
		rev.Add(vs[i])
	}
	if math.Float64bits(fwd.Round()) != math.Float64bits(rev.Round()) {
		t.Fatalf("order changed the bits: %x vs %x",
			math.Float64bits(fwd.Round()), math.Float64bits(rev.Round()))
	}
	// Canonical states must be identical too — the wire form relies on
	// state equality for equal exact values.
	fs, rs := fwd.State(), rev.State()
	if fs.Neg != rs.Neg || fs.Lo != rs.Lo || len(fs.Digits) != len(rs.Digits) {
		t.Fatalf("canonical states differ: %+v vs %+v", fs, rs)
	}
	for i := range fs.Digits {
		if fs.Digits[i] != rs.Digits[i] {
			t.Fatalf("digit %d differs", i)
		}
	}
}

func TestExactFloatStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x exactFloat
	for i := 0; i < 500; i++ {
		x.Add((rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(200)-100)))
	}
	y := exactFromState(x.State())
	if math.Float64bits(x.Round()) != math.Float64bits(y.Round()) {
		t.Fatalf("state round-trip changed the value: %g vs %g", x.Round(), y.Round())
	}
	// Merging a state-restored accumulator must behave like merging the
	// original.
	var a, b exactFloat
	a.Add(1.25)
	b.Add(1.25)
	ax := exactFromState(x.State())
	a.Merge(&ax)
	b.Merge(&x)
	if math.Float64bits(a.Round()) != math.Float64bits(b.Round()) {
		t.Fatalf("merge-after-round-trip differs")
	}
}

func TestExactFloatSpecials(t *testing.T) {
	var x exactFloat
	x.Add(1)
	x.Add(math.Inf(1))
	if !math.IsInf(x.Round(), 1) {
		t.Fatalf("expected +Inf, got %g", x.Round())
	}
	st := x.State()
	if st.Special != "+inf" {
		t.Fatalf("expected +inf special, got %q", st.Special)
	}
	y := exactFromState(st)
	if !math.IsInf(y.Round(), 1) {
		t.Fatalf("special did not round-trip")
	}
	var n exactFloat
	n.Add(math.Inf(1))
	n.Add(math.Inf(-1))
	if !math.IsNaN(n.Round()) {
		t.Fatalf("Inf + -Inf should be NaN, got %g", n.Round())
	}
}

func TestChunkGrid(t *testing.T) {
	// The grid is absolute: cell c spans [c*ChunkRows, (c+1)*ChunkRows),
	// independent of the table's current row count — the property that
	// keeps sealed-cell partials valid across appends.
	for _, r := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 1, 5000, 1_000_000} {
		c := chunkOf(r)
		if chunkStart(c) > r || chunkStart(c+1) <= r {
			t.Fatalf("chunkOf(%d)=%d is not the containing cell [%d,%d)", r, c, chunkStart(c), chunkStart(c+1))
		}
		a := alignToGrid(r)
		if a < r || a-r >= ChunkRows || a%ChunkRows != 0 {
			t.Fatalf("alignToGrid(%d)=%d is not the next boundary", r, a)
		}
	}
	for _, rows := range []int{0, 1, 7, 255, 1023, 1024, 1025, 5000, 1_000_000} {
		// Shard ranges must partition [0,rows) exactly, in order, with
		// every interior boundary on the grid.
		for _, n := range []int{1, 2, 3, 8, 500} {
			ranges := splitAligned(0, rows, n)
			prev := 0
			for _, rg := range ranges {
				if rg[0] != prev || rg[1] <= rg[0] {
					t.Fatalf("rows=%d n=%d: bad range %v (prev %d)", rows, n, rg, prev)
				}
				if rg[0] != 0 && rg[0]%ChunkRows != 0 {
					t.Fatalf("rows=%d n=%d: interior boundary %d off the grid", rows, n, rg[0])
				}
				prev = rg[1]
			}
			if rows > 0 && prev != rows {
				t.Fatalf("rows=%d n=%d: ranges end at %d", rows, n, prev)
			}
			if rows == 0 && ranges != nil {
				t.Fatalf("expected no ranges for empty table")
			}
		}
	}
}
