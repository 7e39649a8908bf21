package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"seedb"
)

// checker counts the operations a run attempted and those that failed:
// an error, a shed request or an output that differs from the
// single-node reference.
type checker struct {
	attempted, failed int64
	firstErr          string
}

// ok records one operation that succeeded.
func (c *checker) ok() { c.attempted++ }

// fail records one failed operation.
func (c *checker) fail(format string, a ...any) {
	c.attempted++
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, a...)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c.firstErr)
	}
}

// same records one output check: got must equal want byte for byte.
func (c *checker) same(got, want []byte, format string, a ...any) {
	if bytes.Equal(got, want) {
		c.ok()
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	c.fail(format+"\n  got:  …%s…\n  want: …%s…", append(a, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])...)
}

// failedFrac is failed ÷ attempted.
func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// resultBytes renders a result's ranking and top-k views: what each
// view is, its score and its distributions. Timing and the executor's
// shared counters (RunStats) are left out: they differ from run to run
// by design. Floats print in their shortest exact form, NaN included.
func resultBytes(res *seedb.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "operator=%s metric=%s target=%d\n", res.Operator, res.Metric, res.TargetRowCount)
	for _, r := range res.Recommendations {
		d := r.Data
		fmt.Fprintf(&b, "#%d %s u=%v chart=%s keys=%q t=%v c=%v traw=%v craw=%v rep=%q\n",
			r.Rank, d.View.String(), d.Utility, r.ChartType, d.Keys,
			d.Target, d.Comparison, d.TargetRaw, d.ComparisonRaw, r.Represents)
	}
	for _, s := range res.AllScores {
		fmt.Fprintf(&b, "%s %v\n", s.View.String(), s.Utility)
	}
	return b.Bytes()
}

// wireView mirrors one view of the HTTP recommend response.
type wireView struct {
	Rank          int      `json:"rank"`
	Title         string   `json:"title"`
	Dimension     string   `json:"dimension"`
	Measure       string   `json:"measure"`
	Func          string   `json:"func"`
	BinWidth      float64  `json:"binWidth"`
	Utility       float64  `json:"utility"`
	ChartType     string   `json:"chartType"`
	Keys          []string `json:"keys"`
	SVG           string   `json:"svg"`
	TargetSQL     string   `json:"targetSQL"`
	ComparisonSQL string   `json:"comparisonSQL"`
	MaxDeltaKey   string   `json:"maxDeltaKey"`
	MaxDelta      float64  `json:"maxDelta"`
	Groups        int      `json:"groups"`
	Represents    []string `json:"represents"`
}

// wireResponse is the part of the HTTP recommend response compared
// against the in-process result: everything but elapsedMillis and the
// executor counters.
type wireResponse struct {
	Metric         string     `json:"metric"`
	Operator       string     `json:"operator"`
	TargetRowCount int64      `json:"targetRowCount"`
	Views          []wireView `json:"views"`
}

// wireBytes re-encodes an HTTP response body in canonical form.
func wireBytes(body []byte) ([]byte, error) {
	var w wireResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return json.Marshal(w)
}

// expectedWireBytes renders what the HTTP response for an in-process
// result must contain, from the public result and chart API.
func expectedWireBytes(res *seedb.Result) ([]byte, error) {
	w := wireResponse{Metric: res.Metric, Operator: res.Operator, TargetRowCount: res.TargetRowCount}
	for _, r := range res.Recommendations {
		d := r.Data
		key, delta := d.MaxDeltaKey()
		w.Views = append(w.Views, wireView{
			Rank: r.Rank, Title: d.View.String(), Dimension: d.View.Dimension, Measure: d.View.Measure,
			Func: d.View.Func.String(), BinWidth: d.View.BinWidth, Utility: d.Utility, ChartType: r.ChartType,
			Keys: d.Keys, SVG: seedb.Chart(d, false).SVG(430, 300), TargetSQL: r.TargetSQL,
			ComparisonSQL: r.ComparisonSQL, MaxDeltaKey: key, MaxDelta: delta, Groups: len(d.Keys),
			Represents: r.Represents,
		})
	}
	return json.Marshal(w)
}
