package main

import (
	"fmt"
	mathrand "math/rand/v2"
	"sort"
	"strings"

	"seedb"
)

// Every input the program receives is generated here from the run's
// seed. Each generator takes its own PCG stream, so adding a draw to
// one workload never shifts another workload's inputs, and the same
// seed always yields byte-identical tables, request streams and append
// batches.

const (
	tableName = "orders"
	batchRows = 2000 // not a multiple of the 1024-row chunk grid
)

// Stream identifiers: the second PCG word, one per generator.
const (
	streamTable uint64 = iota + 1
	streamRequests
	streamBatches
	streamPlacedRequests
)

// newSeededRand returns the deterministic generator of one input stream.
func newSeededRand(seed, stream uint64) *mathrand.Rand {
	return mathrand.New(mathrand.NewPCG(seed, stream))
}

// deriveSeed folds a stream generator's next draw into an int64 seed
// for seedb's own data generators.
func deriveSeed(r *mathrand.Rand) int64 { return int64(r.Uint64() >> 1) }

// sourceTable generates the superstore rows a workload loads.
func sourceTable(seed uint64, rows int) *seedb.Table {
	return seedb.SuperstoreTable("source", rows, deriveSeed(newSeededRand(seed, streamTable)))
}

// tableRows slices rows [lo, hi) of t into the row-major form DB.Append
// takes.
func tableRows(t *seedb.Table, lo, hi int) [][]seedb.Value {
	out := make([][]seedb.Value, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, t.Row(i))
	}
	return out
}

// batchSource deals the live_append workload's batches in order: each
// is its own seeded 2,000-row superstore draw, generated when it is
// needed so a run never holds all of them.
type batchSource struct{ r *mathrand.Rand }

func newBatchSource(seed uint64) *batchSource {
	return &batchSource{r: newSeededRand(seed, streamBatches)}
}

func (b *batchSource) next() [][]seedb.Value {
	return tableRows(seedb.SuperstoreTable("batch", batchRows, deriveSeed(b.r)), 0, batchRows)
}

// Superstore vocabulary the predicate generator draws constants from.
var (
	vocabRegion   = []string{"Central", "East", "South", "West"}
	vocabSegment  = []string{"Consumer", "Corporate", "Home Office"}
	vocabCategory = []string{"Furniture", "Office Supplies", "Technology"}
	vocabSubcat   = []string{"Bookcases", "Chairs", "Furnishings", "Tables", "Binders", "Paper", "Storage", "Supplies", "Accessories", "Copiers", "Phones", "Machines"}
	vocabShip     = []string{"First Class", "Same Day", "Second Class", "Standard Class"}
	vocabMonth    = []string{"01-Jan", "02-Feb", "03-Mar", "04-Apr", "05-May", "06-Jun", "07-Jul", "08-Aug", "09-Sep", "10-Oct", "11-Nov", "12-Dec"}
	vocabState    = []string{"California", "Texas", "New York", "Washington", "Pennsylvania", "Illinois", "Ohio", "Florida", "Michigan", "North Carolina", "Arizona", "Virginia", "Georgia", "Tennessee", "Colorado", "Indiana"}
)

// eqColumns are the string columns an equality or IN predicate may
// filter on. Conjunctions pair columns drawn independently by the
// generator, so every conjunction selects rows (subcategory is never
// paired with category).
var eqColumns = []struct {
	name  string
	vocab []string
}{
	{"category", vocabCategory},
	{"region", vocabRegion},
	{"segment", vocabSegment},
	{"ship_mode", vocabShip},
	{"state", vocabState},
	{"order_month", vocabMonth},
	{"subcategory", vocabSubcat},
}

// probeDims are the dimensions a similarity request may probe.
var probeDims = []string{"region", "segment", "ship_mode", "category"}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// deck deals labels in fixed proportions: each pass through the deck
// holds every label its weight's number of times, in seeded order, so
// every run sends the same mix of request kinds and the seed changes
// only which constants and which repeats it draws.
type deck struct {
	r     *mathrand.Rand
	cards []string
	next  int
}

func newDeck(r *mathrand.Rand, weights map[string]int) *deck {
	d := &deck{r: r}
	for _, label := range sortedKeys(weights) {
		for i := 0; i < weights[label]; i++ {
			d.cards = append(d.cards, label)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() string {
	if d.next == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Request mix. No query log or user study of SeeDB-style exploration
// was available to take the mix from, so it is an assumption that
// follows the workload's description and otherwise picks the simplest
// choice: the four predicate shapes in equal shares (a range alone or
// under an equality in equal halves of the range share), and "mostly
// deviation" (the paper's operator) as three requests in five, the
// other four operators sharing the rest equally. Deviation scans the
// comparison rows as well as the target and takes several times as long
// as the others, so at one half deviation the median of a workload
// without caches would sit on the boundary between the two.
var (
	predicateMix = map[string]int{"eq": 2, "and": 2, "in": 2, "range": 1, "eq range": 1}
	operatorMix  = map[string]int{"deviation": 6, "similarity": 1, "outlier": 1, "typical": 1, "trend": 1}
)

// predicate draws one WHERE clause of the given shape and returns the
// columns it filters on.
func predicate(r *mathrand.Rand, kind string) (string, []string) {
	eq := func(skip string) (string, string) {
		for {
			c := eqColumns[r.IntN(len(eqColumns))]
			if c.name == skip || (skip == "category" && c.name == "subcategory") || (skip == "subcategory" && c.name == "category") {
				continue
			}
			return c.name + " = " + quote(c.vocab[r.IntN(len(c.vocab))]), c.name
		}
	}
	// Discounts above 0.1 exist only for Furniture, so a conjunction
	// keeps the discount bound low enough to select rows whatever the
	// other term picks.
	rng := func(conj bool) (string, string) {
		switch r.IntN(4) {
		case 0:
			return fmt.Sprintf("sales > %d", 100+50*r.IntN(12)), "sales"
		case 1:
			if conj {
				return "discount >= 0.05", "discount"
			}
			return fmt.Sprintf("discount >= %.2f", 0.05+0.05*float64(r.IntN(7))), "discount"
		case 2:
			return fmt.Sprintf("quantity <= %d", 2+r.IntN(6)), "quantity"
		default:
			return fmt.Sprintf("profit < %d", -20+10*r.IntN(8)), "profit"
		}
	}
	switch kind {
	case "eq":
		p, c := eq("")
		return p, []string{c}
	case "and":
		p1, c1 := eq("")
		p2, c2 := eq(c1)
		return p1 + " AND " + p2, []string{c1, c2}
	case "in":
		c := eqColumns[1+r.IntN(len(eqColumns)-1)] // any column but category
		n := min(2+r.IntN(2), len(c.vocab)-1)
		perm := r.Perm(len(c.vocab))[:n]
		vals := make([]string, n)
		for i, j := range perm {
			vals[i] = quote(c.vocab[j])
		}
		return c.name + " IN (" + strings.Join(vals, ", ") + ")", []string{c.name}
	case "eq range":
		p, c := rng(true)
		p2, c2 := eq("")
		return p2 + " AND " + p, []string{c2, c}
	default: // range
		p, c := rng(false)
		return p, []string{c}
	}
}

// analystSQL draws one recommend request of the given predicate shape
// and exploration operator, and returns it with its WHERE clause.
func analystSQL(r *mathrand.Rand, shape, op string) (q, where string) {
	where, cols := predicate(r, shape)
	q = "SELECT * FROM " + tableName + " WHERE " + where
	switch op {
	case "deviation":
		return q, where
	case "similarity":
		used := map[string]bool{}
		for _, c := range cols {
			used[c] = true
		}
		for {
			if d := probeDims[r.IntN(len(probeDims))]; !used[d] {
				return q + " EXPLORE similarity PROBE count(*) BY " + d, where
			}
		}
	default:
		return q + " EXPLORE " + op, where
	}
}

// Nine in twenty requests repeat an earlier one: "about half" in the
// workload's description. A repeat is an exec-cache hit of a few
// milliseconds and a new request a scan of tens to hundreds; at exactly
// one half the median would be the midpoint between the slowest hit
// and the fastest scan, two single samples. Just below half puts it
// among the faster scans.
const (
	repeatsPer  = 9
	requestsPer = 20
)

// zipfIndex draws an index in [0, n) with probability proportional to
// 1/(k+1), the classic Zipf law (exponent 1).
func zipfIndex(r *mathrand.Rand, n int) int {
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / float64(k)
	}
	x := r.Float64() * total
	for k := 1; k < n; k++ {
		if x -= 1 / float64(k); x < 0 {
			return k - 1
		}
	}
	return n - 1
}

// requestStream generates n analyst requests. Each request's operator
// is dealt from a deck of ten, so every ten requests send the operator
// mix exactly; whether it repeats an earlier request is dealt from that
// operator's own deck of twenty. A repeat dealt before any request of
// its operator is sent as a new request, and the operator's next new
// card is sent as a repeat instead, so each operator's repeat share is
// exact over every twenty of its requests. A repeat picks an earlier
// request of its operator, the k-th in order of first appearance with
// Zipf weight 1/k, so a few popular queries come back again and again.
// A new request takes its predicate shape from the operator's own deck
// of eight, so the cheap, selective shapes fall evenly on the cheap
// operators in every run, and is a new draw on a predicate no earlier
// request used: a new operator on an earlier predicate would reuse that
// predicate's chunk partials, a third kind of request between a repeat
// and a new one.
func requestStream(seed, stream uint64, n int) []string {
	r := newSeededRand(seed, stream)
	ops := newDeck(r, operatorMix)
	repeats, shapes := map[string]*deck{}, map[string]*deck{}
	for _, op := range sortedKeys(operatorMix) {
		repeats[op] = newDeck(r, map[string]int{"new": requestsPer - repeatsPer, "repeat": repeatsPer})
		shapes[op] = newDeck(r, predicateMix)
	}
	seen := map[string]bool{}
	byOp := map[string][]string{}
	owed := map[string]int{} // repeats dealt before any request of the operator
	var out []string
	for i := 0; i < n; i++ {
		op := ops.deal()
		repeat := repeats[op].deal() == "repeat"
		earlier := byOp[op]
		switch {
		case repeat && len(earlier) == 0:
			owed[op]++
			repeat = false
		case !repeat && owed[op] > 0:
			owed[op]--
			repeat = true
		}
		if repeat {
			out = append(out, earlier[zipfIndex(r, len(earlier))])
			continue
		}
		shape := shapes[op].deal()
		q, where := analystSQL(r, shape, op)
		for tries := 1; seen[where]; tries++ {
			if tries%32 == 0 { // this shape's constants are used up: deal again
				shape = shapes[op].deal()
			}
			q, where = analystSQL(r, shape, op)
		}
		seen[where] = true
		byOp[op] = append(byOp[op], q)
		out = append(out, q)
	}
	return out
}

// liveQueries are live_append's three fixed analyst queries, issued in
// turn after each append.
var liveQueries = []string{
	"SELECT * FROM " + tableName + " WHERE category = 'Furniture'",
	"SELECT * FROM " + tableName + " WHERE region = 'West' AND segment = 'Consumer'",
	"SELECT * FROM " + tableName + " WHERE discount >= 0.2",
}

// coldPredicate is cold_start's analyst query: category = 'Furniture'.
func coldPredicate() seedb.Predicate { return seedb.Eq("category", seedb.String("Furniture")) }
