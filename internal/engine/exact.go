package engine

import (
	"math"
	"math/bits"
)

// exactFloat is an exact accumulator of float64 values: a signed
// fixed-point integer in base 2^32 whose limbs span whatever slice of
// the double range the inputs actually use. Because every addition is
// integer arithmetic, accumulation is exactly associative and
// commutative — the final value does not depend on the order values
// were added or on how the input was partitioned. Finalization rounds
// the exact total to the nearest float64 (ties to even) once.
//
// This is the property the cluster layer is built on: a scan split
// across parallel workers, placement fragments, or remote nodes
// produces the same aggregate bytes as a single sequential scan, so
// result caches never fragment by execution layout and golden tests
// hold across scan splits and placement topologies.
//
// Limbs are kept in carry-save form (each limb is a signed int64
// holding a base-2^32 digit plus accumulated carries); carries are
// propagated only on canonicalization. A limb gains at most 2^33 of
// magnitude per Add, so billions of additions fit before overflow —
// far beyond the few hundred chunk folds an accumulator sees.
type exactFloat struct {
	limbs []int64 // signed base-2^32 digits, carry-save, little-endian
	lo    int32   // limbs[i] has weight 2^(32*(int(lo)+i) - 1074)
	// special accumulates non-finite inputs (±Inf, NaN) with ordinary
	// float addition; a non-zero special dominates Round, matching the
	// IEEE behavior of a plain running sum.
	special float64
}

const exactBias = 1074 // bit offset 0 corresponds to weight 2^-1074

// addBits folds the value with the given float64 bit pattern into the
// accumulator. Zero is the identity and is skipped by the caller.
func (x *exactFloat) addBits(b uint64) {
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	if exp == 0x7FF {
		x.special += math.Float64frombits(b)
		return
	}
	if exp == 0 {
		if mant == 0 {
			return // ±0
		}
		exp = 1 // subnormal: weight 2^(1-1075), no implicit bit
	} else {
		mant |= 1 << 52
	}
	// value = ±mant * 2^(exp-1075); bit offset above 2^-1074 is exp-1.
	off := exp - 1
	li := off >> 5
	sh := uint(off & 31)
	// mant<<sh spans at most 85 bits = three base-2^32 digits.
	lo64 := mant << sh
	var hi64 uint64
	if sh > 0 {
		hi64 = mant >> (64 - sh)
	}
	x.reserve(li, li+2)
	i := li - int(x.lo)
	if b>>63 == 0 {
		x.limbs[i] += int64(lo64 & 0xFFFFFFFF)
		x.limbs[i+1] += int64(lo64 >> 32)
		x.limbs[i+2] += int64(hi64)
	} else {
		x.limbs[i] -= int64(lo64 & 0xFFFFFFFF)
		x.limbs[i+1] -= int64(lo64 >> 32)
		x.limbs[i+2] -= int64(hi64)
	}
}

// Add folds v into the accumulator.
func (x *exactFloat) Add(v float64) {
	if v == 0 {
		return
	}
	x.addBits(math.Float64bits(v))
}

// reserve grows the limb window to cover limb indices [from, to].
func (x *exactFloat) reserve(from, to int) {
	if x.limbs == nil {
		x.limbs = make([]int64, to-from+1, to-from+5)
		x.lo = int32(from)
		return
	}
	curLo, curHi := int(x.lo), int(x.lo)+len(x.limbs)-1
	if from >= curLo && to <= curHi {
		return
	}
	newLo, newHi := min(from, curLo), max(to, curHi)
	grown := make([]int64, newHi-newLo+1)
	copy(grown[curLo-newLo:], x.limbs)
	x.limbs = grown
	x.lo = int32(newLo)
}

// Merge folds another accumulator's exact state into x. Merging is
// plain limb addition, so it is associative and order-independent.
func (x *exactFloat) Merge(o *exactFloat) {
	x.special += o.special
	if len(o.limbs) == 0 {
		return
	}
	oLo := int(o.lo)
	x.reserve(oLo, oLo+len(o.limbs)-1)
	base := oLo - int(x.lo)
	for i, d := range o.limbs {
		x.limbs[base+i] += d
	}
}

// MergeState folds a serialized canonical state into x directly —
// digit additions only, no intermediate accumulator, no
// re-canonicalization. This is the hot operation of incremental
// execution: merging hundreds of cached chunk partials per query must
// cost limb additions, not canon passes.
func (x *exactFloat) MergeState(st ExactState) {
	if len(st.Digits) > 0 {
		lo := st.Lo
		x.reserve(lo, lo+len(st.Digits)-1)
		base := lo - int(x.lo)
		if st.Neg {
			for i, d := range st.Digits {
				x.limbs[base+i] -= int64(d)
			}
		} else {
			for i, d := range st.Digits {
				x.limbs[base+i] += int64(d)
			}
		}
	}
	switch st.Special {
	case "+inf":
		x.special += math.Inf(1)
	case "-inf":
		x.special += math.Inf(-1)
	case "nan":
		x.special += math.NaN()
	}
}

// canon propagates carries into a canonical sign-magnitude form:
// digits in [0, 2^32), trimmed of leading/trailing zeros. The
// canonical form of an exact value is unique, so two accumulators that
// hold the same mathematical sum — however it was assembled — have
// identical canonical states.
func (x *exactFloat) canon() (neg bool, lo int, digits []uint32) {
	propagate := func(limbs []int64) (int64, []uint32) {
		out := make([]uint32, len(limbs))
		var carry int64
		for i, l := range limbs {
			t := l + carry
			d := t & 0xFFFFFFFF // non-negative: Go & on int64 keeps low bits
			if d < 0 {
				d += 1 << 32
			}
			out[i] = uint32(d)
			carry = (t - d) >> 32
		}
		return carry, out
	}
	carry, digitsU := propagate(x.limbs)
	if carry < 0 {
		// The total is negative: negate and re-propagate to get the
		// magnitude (the negated total is non-negative, so its carry
		// chain terminates with carry >= 0).
		negated := make([]int64, len(x.limbs))
		for i, l := range x.limbs {
			negated[i] = -l
		}
		carry, digitsU = propagate(negated)
		neg = true
	}
	lo = int(x.lo)
	for carry > 0 {
		digitsU = append(digitsU, uint32(carry&0xFFFFFFFF))
		carry >>= 32
	}
	// Trim trailing (low) and leading (high) zero digits.
	start := 0
	for start < len(digitsU) && digitsU[start] == 0 {
		start++
	}
	end := len(digitsU)
	for end > start && digitsU[end-1] == 0 {
		end--
	}
	if start == end {
		return false, 0, nil
	}
	return neg, lo + start, digitsU[start:end]
}

// Round returns the accumulated total rounded to the nearest float64
// (ties to even). Non-finite inputs dominate, mirroring a plain
// running float sum.
func (x *exactFloat) Round() float64 {
	if x.special != 0 || math.IsNaN(x.special) {
		return x.special
	}
	neg, lo, digits := x.canon()
	return roundDigits(neg, lo, digits)
}

// roundDigits rounds a canonical sign-magnitude fixed-point value to
// float64. digits are base-2^32, little-endian, digits[i] weighted
// 2^(32*(lo+i) - 1074).
func roundDigits(neg bool, lo int, digits []uint32) float64 {
	if len(digits) == 0 {
		return 0
	}
	top := len(digits) - 1
	// Absolute bit position (above 2^-1074) of the most significant bit.
	msb := 32*(lo+top) + bits.Len32(digits[top]) - 1
	// Keep 53 significant bits; everything below ulpPos rounds. The
	// floor at 0 keeps subnormals on the 2^-1074 grid.
	ulpPos := msb - 52
	if ulpPos < 0 {
		ulpPos = 0
	}
	// Collect the integer part above ulpPos, the round bit, and a
	// sticky flag for everything below.
	var mant uint64
	var round, sticky bool
	for i := top; i >= 0; i-- {
		base := 32 * (lo + i) // bit position of digits[i]'s bit 0
		d := digits[i]
		if base >= ulpPos {
			mant = mant<<32 | uint64(d)
			continue
		}
		if base+32 <= ulpPos-1 {
			// Entirely below the round bit.
			if d != 0 {
				sticky = true
			}
			continue
		}
		// The digit straddles ulpPos: split it.
		shift := uint(ulpPos - base)
		mant = mant<<(32-shift) | uint64(d>>shift)
		rest := d & (1<<shift - 1)
		if rest>>(shift-1) != 0 {
			round = true
		}
		if rest&(1<<(shift-1)-1) != 0 {
			sticky = true
		}
	}
	// When every digit lies at or above ulpPos, the grid bits between
	// ulpPos and the lowest digit are zero: align the mantissa so its
	// unit is exactly 2^ulpPos.
	if low := 32 * lo; low > ulpPos {
		mant <<= uint(low - ulpPos)
	}
	// Round half to even.
	if round && (sticky || mant&1 == 1) {
		mant++
	}
	f := math.Ldexp(float64(mant), ulpPos-exactBias)
	if neg {
		f = -f
	}
	return f
}

// ExactState is the canonical wire form of an exact sum: base-2^32
// digits of the magnitude plus a sign, exactly as produced by canon.
// Equal exact values always serialize to equal states. Non-finite
// totals travel in Special ("+inf", "-inf", "nan") because JSON cannot
// carry IEEE specials as numbers.
type ExactState struct {
	Neg     bool     `json:"neg,omitempty"`
	Lo      int      `json:"lo,omitempty"`
	Digits  []uint32 `json:"d,omitempty"`
	Special string   `json:"special,omitempty"`
}

// State snapshots the accumulator in canonical form.
func (x *exactFloat) State() ExactState {
	neg, lo, digits := x.canon()
	st := ExactState{Neg: neg, Lo: lo, Digits: digits}
	switch {
	case math.IsNaN(x.special):
		st.Special = "nan"
	case math.IsInf(x.special, 1):
		st.Special = "+inf"
	case math.IsInf(x.special, -1):
		st.Special = "-inf"
	}
	return st
}

// exactFromState rebuilds an accumulator from a serialized state.
func exactFromState(st ExactState) exactFloat {
	var x exactFloat
	if len(st.Digits) > 0 {
		x.lo = int32(st.Lo)
		x.limbs = make([]int64, len(st.Digits))
		for i, d := range st.Digits {
			if st.Neg {
				x.limbs[i] = -int64(d)
			} else {
				x.limbs[i] = int64(d)
			}
		}
	}
	switch st.Special {
	case "+inf":
		x.special = math.Inf(1)
	case "-inf":
		x.special = math.Inf(-1)
	case "nan":
		x.special = math.NaN()
	}
	return x
}
