package core

import (
	"fmt"
	"runtime"

	"seedb/internal/engine"
)

// CombineMode selects how the optimizer merges view queries with
// different group-by attributes (paper §3.3, "Combine Multiple
// Group-bys").
type CombineMode int

const (
	// CombineNone executes one query per dimension attribute.
	CombineNone CombineMode = iota
	// CombineGroupingSets shares one scan among several dimensions by
	// maintaining one hash table per dimension (engine grouping sets).
	// Memory grows with the SUM of dimension cardinalities.
	CombineGroupingSets
	// CombineCompositeKey groups several dimensions under a single
	// composite key and post-aggregates marginal distributions at the
	// backend. Memory grows with the PRODUCT of cardinalities, so the
	// optimizer bin-packs dimensions under the group budget.
	CombineCompositeKey
)

// String names the mode.
func (m CombineMode) String() string {
	switch m {
	case CombineNone:
		return "none"
	case CombineGroupingSets:
		return "grouping-sets"
	case CombineCompositeKey:
		return "composite-key"
	default:
		return fmt.Sprintf("CombineMode(%d)", int(m))
	}
}

// Options configures a Recommend call. The zero value is not valid;
// use DefaultOptions as the base.
type Options struct {
	// K is how many top views to recommend.
	K int
	// Metric names the distance function (see internal/distance).
	Metric string

	// Operator names the exploration operator that scores views
	// ("deviation" when empty; see ExplorationOperator and
	// OperatorNames). The operator travels inside Options on purpose:
	// RunSignature, the scheduler's coalescing key, session defaults,
	// and the SSE resume digest all derive from the option set, so a
	// new operator knob propagates through every layer without any of
	// them learning what an operator is.
	Operator string

	// ProbeDimension / ProbeMeasure / ProbeFunc / ProbeBinWidth name
	// the probe view for the similarity operator ("views shaped like
	// f(m) BY a"). ProbeFunc is the aggregate name ("sum", "count",
	// ...); it is kept as a string so Options stays a value-only
	// struct (see RunSignature).
	ProbeDimension string
	ProbeMeasure   string
	ProbeFunc      string
	ProbeBinWidth  float64

	// AggFuncs lists the aggregate functions F to enumerate.
	AggFuncs []engine.AggFunc
	// Dimensions / Measures override automatic attribute detection
	// when non-empty.
	Dimensions []string
	Measures   []string
	// MaxGroupsPerDim caps a dimension's distinct-value count; higher
	// cardinality attributes are not useful to visualize and are
	// skipped during enumeration.
	MaxGroupsPerDim int
	// BinContinuousDims turns continuous columns (floats, over-wide
	// ints, timestamps) into equi-width binned dimensions — the
	// "binning" operation of §1 — instead of skipping them.
	BinContinuousDims bool
	// TargetBins is the bucket count binning aims for (snapped to
	// nice 1/2/5 widths).
	TargetBins int

	// --- View-space pruning (paper §3.3, "View Space Pruning") ---

	// PruneLowVariance drops dimensions whose value distribution is
	// too concentrated (normalized entropy below VarianceMinEntropy,
	// or a single distinct value).
	PruneLowVariance   bool
	VarianceMinEntropy float64

	// PruneCorrelated clusters dimensions with Cramér's V ≥
	// CorrelationThreshold and evaluates one representative per
	// cluster.
	PruneCorrelated      bool
	CorrelationThreshold float64

	// PruneRarelyAccessed drops dimensions whose historical access
	// count (from the catalog's tracker) falls below
	// AccessKeepFraction of the most-accessed dimension's count; it
	// only activates once the table has at least AccessMinHistory
	// recorded column touches.
	PruneRarelyAccessed bool
	AccessKeepFraction  float64
	AccessMinHistory    int64

	// --- Query optimizations (paper §3.3, "View Query Optimizations") ---

	// CombineTargetComparison merges each view's target and comparison
	// queries into one scan using conditional aggregation.
	CombineTargetComparison bool
	// CombineAggregates merges all views sharing a group-by attribute
	// into one query.
	CombineAggregates bool
	// CombineGroupBys selects the multi-group-by strategy.
	CombineGroupBys CombineMode
	// GroupBudget is the working-memory budget expressed in groups
	// (hash-table entries) per combined query.
	GroupBudget int
	// ExactPacking uses branch-and-bound (the paper's ILP) instead of
	// first-fit-decreasing when bin-packing dimensions.
	ExactPacking bool

	// SampleFraction ∈ (0,1) runs view queries on a Bernoulli sample
	// when the table has at least SampleMinRows rows.
	SampleFraction float64
	SampleMinRows  int
	SampleSeed     uint64

	// Parallelism is the number of concurrent view queries (and the
	// per-query scan parallelism for large tables). 0 means GOMAXPROCS.
	Parallelism int

	// Phases > 1 enables phased execution with confidence-interval
	// pruning (extension): the table is processed in Phases chunks and
	// views whose utility upper bound cannot reach the top-k are
	// dropped early. PhaseConfidence is the per-decision confidence
	// (e.g. 0.95).
	Phases          int
	PhaseConfidence float64

	// IncludeWorst returns the N lowest-utility views too (the demo's
	// "bad views" display).
	IncludeWorst int
}

// DefaultOptions returns the configuration used by the demo: all
// optimizations on, EMD metric, top 10 views.
func DefaultOptions() Options {
	return Options{
		K:                       10,
		Metric:                  "emd",
		AggFuncs:                []engine.AggFunc{engine.AggSum, engine.AggCount, engine.AggAvg},
		MaxGroupsPerDim:         500,
		BinContinuousDims:       true,
		TargetBins:              12,
		PruneLowVariance:        true,
		VarianceMinEntropy:      0.02,
		PruneCorrelated:         true,
		CorrelationThreshold:    0.95,
		PruneRarelyAccessed:     false, // opt-in: needs access history
		AccessKeepFraction:      0.1,
		AccessMinHistory:        100,
		CombineTargetComparison: true,
		CombineAggregates:       true,
		CombineGroupBys:         CombineGroupingSets,
		GroupBudget:             100_000,
		ExactPacking:            true,
		SampleFraction:          0, // sampling is opt-in
		SampleMinRows:           100_000,
		Parallelism:             0,
		IncludeWorst:            0,
	}
}

// BasicOptions returns the paper's "basic framework": every view query
// executed independently with no pruning, no sharing, no sampling —
// the baseline the optimizations are measured against.
func BasicOptions() Options {
	o := DefaultOptions()
	o.PruneLowVariance = false
	o.PruneCorrelated = false
	o.PruneRarelyAccessed = false
	o.CombineTargetComparison = false
	o.CombineAggregates = false
	o.CombineGroupBys = CombineNone
	o.SampleFraction = 0
	o.Parallelism = 1
	o.Phases = 0
	return o
}

// normalize validates and fills defaults; returns a copy.
func (o Options) normalize() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("core: K must be positive, got %d", o.K)
	}
	if o.Metric == "" {
		o.Metric = "emd"
	}
	if o.Operator == "" {
		o.Operator = "deviation"
	}
	op, err := GetOperator(o.Operator)
	if err != nil {
		return o, err
	}
	if err := op.Validate(o); err != nil {
		return o, err
	}
	if !op.NeedsReference() {
		// Target-only operators run a single side per view; the
		// conditional-aggregate rewrite that merges target+comparison
		// scans has nothing to merge.
		o.CombineTargetComparison = false
	}
	if len(o.AggFuncs) == 0 {
		o.AggFuncs = []engine.AggFunc{engine.AggSum}
	}
	if o.MaxGroupsPerDim <= 0 {
		o.MaxGroupsPerDim = 500
	}
	if o.TargetBins <= 0 {
		o.TargetBins = 12
	}
	if o.GroupBudget <= 0 {
		o.GroupBudget = 100_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.SampleFraction < 0 || o.SampleFraction >= 1 {
		if o.SampleFraction != 0 {
			return o, fmt.Errorf("core: SampleFraction must be in [0,1), got %v", o.SampleFraction)
		}
	}
	if o.Phases < 0 {
		return o, fmt.Errorf("core: Phases must be >= 0, got %d", o.Phases)
	}
	if o.Phases > 1 {
		if o.PhaseConfidence <= 0 || o.PhaseConfidence >= 1 {
			o.PhaseConfidence = 0.95
		}
	}
	if o.CorrelationThreshold <= 0 {
		o.CorrelationThreshold = 0.95
	}
	if o.VarianceMinEntropy < 0 {
		o.VarianceMinEntropy = 0
	}
	if o.AccessKeepFraction <= 0 {
		o.AccessKeepFraction = 0.1
	}
	return o, nil
}
