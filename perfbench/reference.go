package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"seedb"
)

// reference is the single-node, in-process instance a workload's
// outputs are checked against.
//
// Correlation pruning keeps, of each cluster of correlated dimensions,
// the member the catalog has recorded as most accessed (ties go to the
// first name), and access-frequency pruning reads the same counts, so a
// result depends on the instance's access history as well as on the
// request. Where one in-process client drives the instance under test,
// its history before each request is known: checkAt gives the
// reference that history and requires every byte to match. Where two
// clients interleave their requests over HTTP, the history is not
// observable: check resets the reference's history to select one
// member of each cluster as representative, trying the members in turn
// (the choice that matched last first), and every byte of the result
// must match for one of those choices.
type reference struct {
	db     *seedb.DB
	prefer map[string]string // cluster → representative that matched last
	memo   map[string][]byte // (request, history) → rendered reference
	other  int               // checks matched with a representative a zero-history instance would not pick
	render func(*seedb.Result) ([]byte, error)
}

func newReference(db *seedb.DB, render func(*seedb.Result) ([]byte, error)) *reference {
	return &reference{db: db, prefer: map[string]string{}, memo: map[string][]byte{}, render: render}
}

// accessHistory returns a copy of db's access counters for the table.
func accessHistory(db *seedb.DB) map[string]int64 {
	return db.Engine().Executor().Catalog().AccessCounts(tableName)
}

// resultAt renders the reference's result for request q with its
// access history set to history.
func (rf *reference) resultAt(q string, history map[string]int64) ([]byte, error) {
	cols := make([]string, 0, len(history))
	for c := range history {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	key := q
	for _, c := range cols {
		key += fmt.Sprintf("\x00%s=%d", c, history[c])
	}
	if want, ok := rf.memo[key]; ok {
		return want, nil
	}
	cat := rf.db.Engine().Executor().Catalog()
	cat.ResetAccessCounts(tableName)
	for _, c := range cols {
		for i := int64(0); i < history[c]; i++ {
			cat.RecordAccess(tableName, c)
		}
	}
	res, err := rf.db.RecommendSQL(context.Background(), q, seedb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	want, err := rf.render(res)
	if err == nil {
		rf.memo[key] = want
	}
	return want, err
}

// checkAt records whether got equals, byte for byte, the reference
// result of request q at the access history the instance under test
// had when it ran q.
func (rf *reference) checkAt(c *checker, q string, history map[string]int64, got []byte, what string) {
	want, err := rf.resultAt(q, history)
	if err != nil {
		c.fail("%s %s: reference: %v", what, q, err)
		return
	}
	c.same(got, want, "%s %s: differs from the single-node result at the same access history", what, q)
}

// choices lists the representative assignments for request q: one
// member per multi-member cluster of the dimensions q's pruning
// clusters, the preferred assignment first.
func (rf *reference) choices(q string) ([][]string, []string, error) {
	predCols, err := predicateColumns(rf.db, q)
	if err != nil {
		return nil, nil, err
	}
	t, err := rf.db.Table(tableName)
	if err != nil {
		return nil, nil, err
	}
	col, opts := rf.db.Engine().Collector(), seedb.DefaultOptions()
	clusters, err := col.CorrelationClusters(t, clusterDims(col.Stats(t), t.Schema(), predCols, opts), opts.CorrelationThreshold)
	if err != nil {
		return nil, nil, err
	}
	out := [][]string{nil}
	var keys []string
	for _, cl := range clusters {
		if len(cl) < 2 {
			continue
		}
		key := strings.Join(cl, ",")
		keys = append(keys, key)
		first := rf.prefer[key]
		if first == "" {
			first = cl[0]
		}
		var next [][]string
		for _, a := range out {
			next = append(next, append(append([]string(nil), a...), first))
		}
		for _, m := range cl {
			if m != first {
				for _, a := range out {
					next = append(next, append(append([]string(nil), a...), m))
				}
			}
		}
		out = next
	}
	return out, keys, nil
}

// check records whether got equals the reference result of request q
// for some choice of correlation representatives.
func (rf *reference) check(c *checker, q string, got []byte, what string) {
	assigns, keys, err := rf.choices(q)
	if err != nil {
		c.fail("%s %s: reference: %v", what, q, err)
		return
	}
	var first []byte
	for ai, a := range assigns {
		history := map[string]int64{}
		for _, m := range a {
			history[m] = 1
		}
		want, err := rf.resultAt(q, history)
		if err != nil {
			c.fail("%s %s: reference: %v", what, q, err)
			return
		}
		if ai == 0 {
			first = want
		}
		if string(got) == string(want) {
			zeroHistory := true
			for i, k := range keys {
				rf.prefer[k] = a[i]
				zeroHistory = zeroHistory && a[i] == strings.SplitN(k, ",", 2)[0]
			}
			if !zeroHistory {
				rf.other++
			}
			c.ok()
			return
		}
	}
	c.same(got, first, "%s %s: differs from the single-node result for every choice of correlation representative", what, q)
}
