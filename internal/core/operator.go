package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"seedb/internal/distance"
	"seedb/internal/engine"
	"seedb/internal/viz"
)

// ExplorationOperator is the seam that turns the deviation-only
// pipeline into a family of exploration primitives (zenvisage-style,
// see PAPERS.md). The engine owns everything an operator does not care
// about — enumeration, pruning, the query-combining optimizer, caching,
// sharding, phased execution — and the operator owns exactly three
// things: what per-view data it needs (a target-only scan, or target
// plus the whole-table reference), how a batch of evaluated views is
// scored, and how wide its utility scale is (so Hoeffding-based phased
// pruning and top-k selection keep working without knowing which
// operator is running).
//
// Score receives the full batch of evaluated views because some
// operators are relational: outlier/typicality scores each view against
// the centroid of its siblings, similarity scores against a probe view
// that travels in the same batch. Operators must be deterministic pure
// functions of their inputs — scores feed golden tests that pin
// byte-identical output across scan splits, placement, caching, and
// streaming.
type ExplorationOperator interface {
	// Name is the registry key (e.g. "deviation").
	Name() string
	// NeedsReference reports whether the operator compares the target
	// (D_Q) distribution against the whole-table reference (D). When
	// false the engine runs only the target-side query per view and
	// mirrors it into the comparison slot, halving the scan work.
	NeedsReference() bool
	// Validate checks operator-specific options at normalize time.
	Validate(o Options) error
	// RequiredViews lists views that must be evaluated even if
	// enumeration or pruning would skip them (e.g. similarity's probe
	// view). The engine appends any that are missing.
	RequiredViews(o Options) []View
	// Score assigns Utility to the evaluated views and returns the
	// rankable subset, preserving input order. Views an operator cannot
	// score (no ordinal domain for trend, the probe itself for
	// similarity, singleton sibling groups for outlier) are dropped.
	Score(sc *ScoreContext, data []*ViewData) ([]*ViewData, error)
	// UtilityBound returns an upper bound B on the operator's utility
	// for views of at most maxGroups groups, used as the fallback
	// Hoeffding scale before any interim utility exists.
	UtilityBound(metricName string, maxGroups int) float64
	// Intent classifies the ranking for chart-type recommendation.
	Intent() viz.Intent
}

// ScoreContext carries the run-scoped inputs an operator scores with.
type ScoreContext struct {
	// Metric is the configured distance kernel (Options.Metric).
	Metric distance.Metric
	// Opts is the normalized option set (probe spec, K, ...).
	Opts Options
}

// ---------------------------------------------------------------------
// Registry

var (
	opMu       sync.RWMutex
	opRegistry = map[string]ExplorationOperator{}
)

func init() {
	MustRegisterOperator(deviationOperator{})
	MustRegisterOperator(similarityOperator{})
	MustRegisterOperator(siblingOperator{outlier: true})
	MustRegisterOperator(siblingOperator{outlier: false})
	MustRegisterOperator(trendOperator{})
}

// RegisterOperator adds an operator under its Name; duplicates error.
func RegisterOperator(op ExplorationOperator) error {
	opMu.Lock()
	defer opMu.Unlock()
	if _, dup := opRegistry[op.Name()]; dup {
		return fmt.Errorf("core: operator %q already registered", op.Name())
	}
	opRegistry[op.Name()] = op
	return nil
}

// MustRegisterOperator is RegisterOperator that panics on error.
func MustRegisterOperator(op ExplorationOperator) {
	if err := RegisterOperator(op); err != nil {
		panic(err)
	}
}

// GetOperator looks up an operator by name ("" selects deviation).
func GetOperator(name string) (ExplorationOperator, error) {
	if name == "" {
		name = "deviation"
	}
	opMu.RLock()
	defer opMu.RUnlock()
	op, ok := opRegistry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown operator %q (have %v)", name, operatorNames())
	}
	return op, nil
}

// OperatorNames returns the registered operator names, sorted.
func OperatorNames() []string {
	opMu.RLock()
	defer opMu.RUnlock()
	return operatorNames()
}

func operatorNames() []string {
	out := make([]string, 0, len(opRegistry))
	for n := range opRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Deviation — the paper's operator

// deviationOperator scores each view by the distance between its
// target and reference distributions — SeeDB's utility
// U(V) = S(P[V(D_Q)], P[V(D)]) (§2). It is the default operator and
// reproduces the pre-seam pipeline byte for byte: same metric call on
// the same aligned distributions, per view, in batch order.
type deviationOperator struct{}

func (deviationOperator) Name() string                 { return "deviation" }
func (deviationOperator) NeedsReference() bool         { return true }
func (deviationOperator) Validate(Options) error       { return nil }
func (deviationOperator) RequiredViews(Options) []View { return nil }
func (deviationOperator) Intent() viz.Intent           { return viz.IntentDeviation }

func (deviationOperator) UtilityBound(metricName string, maxGroups int) float64 {
	return metricBound(metricName, maxGroups)
}

func (deviationOperator) Score(sc *ScoreContext, data []*ViewData) ([]*ViewData, error) {
	out := data[:0]
	for _, d := range data {
		u, err := sc.Metric.Distance(d.Target, d.Comparison)
		if err != nil {
			continue // unscorable view (degenerate distributions)
		}
		d.Utility = u
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Similarity — "views shaped like this probe view"

// similarityResolution is the common grid both distributions are
// resampled onto before shape comparison. Views group by different
// dimensions, so their distributions have incomparable key spaces;
// mass-preserving resampling onto a fixed grid compares shape alone
// (zenvisage's similarity search semantics).
const similarityResolution = 64

// similarityOperator ranks views by how closely their target
// distribution's shape matches a probe view named in the options
// (ProbeDimension/ProbeMeasure/ProbeFunc). Utility is 1/(1+d) for the
// configured metric's distance d on the resampled pair, so closer
// shapes rank higher and utilities stay in (0, 1]. The probe itself is
// evaluated alongside the batch (the engine force-includes it via
// RequiredViews) and excluded from the ranking.
type similarityOperator struct{}

func (similarityOperator) Name() string         { return "similarity" }
func (similarityOperator) NeedsReference() bool { return false }
func (similarityOperator) Intent() viz.Intent   { return viz.IntentSimilarity }

func (similarityOperator) UtilityBound(string, int) float64 { return 1 }

func (similarityOperator) Validate(o Options) error {
	if o.ProbeDimension == "" {
		return fmt.Errorf("core: similarity operator requires ProbeDimension (the probe view's group-by attribute)")
	}
	if _, err := o.probeView(); err != nil {
		return err
	}
	return nil
}

func (o similarityOperator) RequiredViews(opts Options) []View {
	pv, err := opts.probeView()
	if err != nil {
		return nil // Validate already rejected this option set
	}
	return []View{pv}
}

func (similarityOperator) Score(sc *ScoreContext, data []*ViewData) ([]*ViewData, error) {
	pv, err := sc.Opts.probeView()
	if err != nil {
		return nil, err
	}
	probeKey := pv.Key()
	var probe *ViewData
	for _, d := range data {
		if d.View.Key() == probeKey {
			probe = d
			break
		}
	}
	if probe == nil {
		return nil, fmt.Errorf("core: similarity probe view %s produced no data", pv)
	}
	probeShape := resampleMass(probe.Target, similarityResolution)
	out := data[:0]
	for _, d := range data {
		if d.View.Key() == probeKey {
			continue // the probe is the reference, not a result
		}
		dist, err := sc.Metric.Distance(resampleMass(d.Target, similarityResolution), probeShape)
		if err != nil {
			continue
		}
		d.Utility = 1 / (1 + dist)
		out = append(out, d)
	}
	return out, nil
}

// resampleMass redistributes a distribution's probability mass onto a
// fixed grid of L bins by piecewise-constant overlap: source bin i
// covers [i/n, (i+1)/n) of the unit interval and contributes to each
// overlapping target bin proportionally. Mass is preserved, the
// computation is a deterministic function of the input, and two
// distributions of any lengths become comparable.
func resampleMass(p distance.Distribution, L int) distance.Distribution {
	n := len(p)
	if n == 0 {
		return nil
	}
	if n == L {
		out := make(distance.Distribution, L)
		copy(out, p)
		return out
	}
	out := make(distance.Distribution, L)
	fn, fL := float64(n), float64(L)
	for i := 0; i < n; i++ {
		lo, hi := float64(i)/fn, float64(i+1)/fn
		jLo := int(lo * fL)
		for j := jLo; j < L; j++ {
			a, b := float64(j)/fL, float64(j+1)/fL
			if a >= hi {
				break
			}
			if lo > a {
				a = lo
			}
			if hi < b {
				b = hi
			}
			if b > a {
				out[j] += p[i] * (b - a) * fn
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Outlier / typicality — distance from the sibling centroid

// siblingOperator scores each view against the leave-one-out centroid
// of its siblings — the other views grouped by the same dimension,
// whose distributions share a key space. "outlier" ranks views farthest
// from their siblings first (utility = centroid distance); "typical"
// ranks the most representative views first (utility = 1/(1+distance)).
// Views whose dimension carries no siblings are dropped: with nothing
// to compare against, neither outlierness nor typicality is defined.
type siblingOperator struct {
	outlier bool
}

func (s siblingOperator) Name() string {
	if s.outlier {
		return "outlier"
	}
	return "typical"
}
func (siblingOperator) NeedsReference() bool         { return false }
func (siblingOperator) Validate(Options) error       { return nil }
func (siblingOperator) RequiredViews(Options) []View { return nil }

func (s siblingOperator) Intent() viz.Intent {
	if s.outlier {
		return viz.IntentOutlier
	}
	return viz.IntentTypical
}

func (s siblingOperator) UtilityBound(metricName string, maxGroups int) float64 {
	if s.outlier {
		return metricBound(metricName, maxGroups)
	}
	return 1
}

func (s siblingOperator) Score(sc *ScoreContext, data []*ViewData) ([]*ViewData, error) {
	// Sibling groups share a dimension (and bin width): their group
	// labels live in the same domain, so distributions can be aligned
	// on the union of keys and averaged meaningfully.
	groups := map[string][]*ViewData{}
	var groupOrder []string
	for _, d := range data {
		gk := fmt.Sprintf("%s\x00%g", d.View.Dimension, d.View.BinWidth)
		if _, ok := groups[gk]; !ok {
			groupOrder = append(groupOrder, gk)
		}
		groups[gk] = append(groups[gk], d)
	}

	utilities := map[string]float64{}
	scorable := map[string]bool{}
	for _, gk := range groupOrder {
		members := groups[gk]
		if len(members) < 2 {
			continue
		}
		// Deterministic float summation: fixed member order by view key.
		ordered := append([]*ViewData(nil), members...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].View.Key() < ordered[j].View.Key() })
		// Union key space, sorted.
		keySet := map[string]struct{}{}
		for _, m := range ordered {
			for _, k := range m.Keys {
				keySet[k] = struct{}{}
			}
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pos := make(map[string]int, len(keys))
		for i, k := range keys {
			pos[k] = i
		}
		// Extend each member onto the union (absent groups carry zero
		// mass; each extended vector still sums to 1), and accumulate
		// the elementwise sum.
		ext := make([]distance.Distribution, len(ordered))
		sum := make([]float64, len(keys))
		for mi, m := range ordered {
			v := make(distance.Distribution, len(keys))
			for i, k := range m.Keys {
				v[pos[k]] = m.Target[i]
			}
			ext[mi] = v
			for i := range v {
				sum[i] += v[i]
			}
		}
		n := float64(len(ordered))
		for mi, m := range ordered {
			centroid := make(distance.Distribution, len(keys))
			for i := range centroid {
				centroid[i] = (sum[i] - ext[mi][i]) / (n - 1)
			}
			dist, err := sc.Metric.Distance(ext[mi], centroid)
			if err != nil {
				continue
			}
			key := m.View.Key()
			scorable[key] = true
			if s.outlier {
				utilities[key] = dist
			} else {
				utilities[key] = 1 / (1 + dist)
			}
		}
	}

	out := data[:0]
	for _, d := range data {
		if !scorable[d.View.Key()] {
			continue
		}
		d.Utility = utilities[d.View.Key()]
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Trend — monotonicity over ordered dimensions

// trendOperator ranks views by how monotone their target series is
// over the dimension's intrinsic order: utility is |τ|, the absolute
// Kendall rank correlation between group position (viz.KeyOrder:
// numbers, timestamps, month names) and the raw aggregate value. Views
// over unordered dimensions, or with fewer than three ordered groups,
// have no trend and are dropped.
type trendOperator struct{}

func (trendOperator) Name() string                     { return "trend" }
func (trendOperator) NeedsReference() bool             { return false }
func (trendOperator) Validate(Options) error           { return nil }
func (trendOperator) RequiredViews(Options) []View     { return nil }
func (trendOperator) Intent() viz.Intent               { return viz.IntentTrend }
func (trendOperator) UtilityBound(string, int) float64 { return 1 }

func (trendOperator) Score(_ *ScoreContext, data []*ViewData) ([]*ViewData, error) {
	out := data[:0]
	for _, d := range data {
		tau, ok := kendallTrend(d.Keys, d.TargetRaw)
		if !ok {
			continue
		}
		d.Utility = math.Abs(tau)
		out = append(out, d)
	}
	return out, nil
}

// kendallTrend computes Kendall's τ between each group's intrinsic
// position and its value. It reports !ok when any key lacks an
// intrinsic order, fewer than three groups exist, or every pair is
// tied (no rankable signal).
func kendallTrend(keys []string, values []float64) (float64, bool) {
	if len(keys) < 3 {
		return 0, false
	}
	positions := make([]float64, len(keys))
	for i, k := range keys {
		p, ok := viz.KeyOrder(k)
		if !ok {
			return 0, false
		}
		positions[i] = p
	}
	var concordant, discordant, comparable int
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			dp := positions[j] - positions[i]
			if dp == 0 {
				continue // tied positions carry no order information
			}
			comparable++
			dv := values[j] - values[i]
			switch {
			case dp*dv > 0:
				concordant++
			case dp*dv < 0:
				discordant++
			}
		}
	}
	if comparable == 0 {
		return 0, false
	}
	return float64(concordant-discordant) / float64(comparable), true
}

// ---------------------------------------------------------------------
// Probe view resolution (Options helper)

// probeView materializes the probe view the similarity operator
// compares against from the Probe* option fields.
func (o Options) probeView() (View, error) {
	fn := o.ProbeFunc
	if fn == "" {
		if o.ProbeMeasure == "" {
			fn = "count"
		} else {
			return View{}, fmt.Errorf("core: ProbeFunc is required with ProbeMeasure %q (e.g. \"sum\")", o.ProbeMeasure)
		}
	}
	f, err := engine.ParseAggFunc(fn)
	if err != nil {
		return View{}, fmt.Errorf("core: ProbeFunc %q: %w", strings.ToLower(fn), err)
	}
	return View{Dimension: o.ProbeDimension, Measure: o.ProbeMeasure, Func: f, BinWidth: o.ProbeBinWidth}, nil
}
