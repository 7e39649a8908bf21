package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// digest hashes length-prefixed parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputDigest digests everything a workload sends the program for a
// seed, at test-sized rows and request counts.
func inputDigest(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	hash, err := sourceTable(seed, 5000).ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]byte{[]byte(hash)}
	switch workload {
	case "cold_start":
		parts = append(parts, []byte(coldPredicate().String()))
	case "interactive_http":
		parts = append(parts, []byte(strings.Join(requestStream(seed, streamRequests, 200), "\n")))
	case "live_append":
		b := newBatchSource(seed)
		parts = append(parts, []byte(fmt.Sprint(b.next(), b.next(), b.next())), []byte(strings.Join(liveQueries, "\n")))
	case "placed_reads":
		parts = append(parts, []byte(strings.Join(requestStream(seed, streamPlacedRequests, 200), "\n")))
	default:
		t.Fatalf("no inputs for workload %q", workload)
	}
	return digest(parts...)
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := inputDigest(t, w.name, 7), inputDigest(t, w.name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w.name)
		}
		if c := inputDigest(t, w.name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
	// The two request streams of one seed are independent draws.
	if strings.Join(requestStream(7, streamRequests, 50), "\n") == strings.Join(requestStream(7, streamPlacedRequests, 50), "\n") {
		t.Error("interactive_http and placed_reads share a request stream")
	}
}

func TestRequestStreamMix(t *testing.T) {
	n := 400 // whole passes through the deck
	s := requestStream(3, streamRequests, n)
	seen, wheres := map[string]bool{}, map[string]bool{}
	repeats := 0
	ops := map[string]int{}
	for _, q := range s {
		op := "deviation"
		if _, explore, ok := strings.Cut(q, " EXPLORE "); ok {
			op = strings.Fields(explore)[0]
		}
		ops[op]++
		if seen[q] {
			repeats++
			continue
		}
		seen[q] = true
		where, _, _ := strings.Cut(q, " EXPLORE ")
		if wheres[where] {
			t.Errorf("%s: a new request on an earlier request's predicate", q)
		}
		wheres[where] = true
	}
	if want := n * repeatsPer / requestsPer; repeats != want {
		t.Errorf("%d repeats in %d requests, want %d", repeats, n, want)
	}
	total := 0
	for _, w := range operatorMix {
		total += w
	}
	for op, w := range operatorMix {
		if want := n * w / total; ops[op] != want {
			t.Errorf("%d %s requests in %d, want %d", ops[op], op, n, want)
		}
	}
	// The operator mix is exact in every stream of a multiple of ten
	// requests, such as placed_reads' 120, whatever the seed.
	for seed := uint64(1); seed <= 20; seed++ {
		m := 120
		deviation := 0
		for _, q := range requestStream(seed, streamPlacedRequests, m) {
			if !strings.Contains(q, " EXPLORE ") {
				deviation++
			}
		}
		if want := m * operatorMix["deviation"] / total; deviation != want {
			t.Errorf("seed %d: %d deviation requests in %d, want %d", seed, deviation, m, want)
		}
	}
}

// Every generated request must select rows: a request with an empty
// target fails in the program, and the workloads must not fail.
func TestGeneratedRequestsSelectRows(t *testing.T) {
	var ignore ingestLog
	db, err := loadInstance(sourceTable(1, servedRows), &ignore)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, stream := range []uint64{streamRequests, streamPlacedRequests} {
			for _, q := range requestStream(seed, stream, 300) {
				if seen[q] {
					continue
				}
				seen[q] = true
				where := strings.TrimPrefix(q, "SELECT * FROM "+tableName+" WHERE ")
				if i := strings.Index(where, " EXPLORE "); i >= 0 {
					where = where[:i]
				}
				res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM "+tableName+" WHERE "+where)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if n := res.Rows[0][0].I; n < 50 {
					t.Errorf("%s selects %d rows", q, n)
				}
			}
		}
	}
}
