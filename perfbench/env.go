package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// envBlock is the host record every result carries.
type envBlock struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty"` // nil when the build carried no VCS stamp
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// hostEnv reads the host and the build's VCS stamp (present when the
// binary was built inside a git checkout).
func hostEnv(workload string, seed uint64, seconds int, trace bool) envBlock {
	e := envBlock{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				d := s.Value == "true"
				e.Dirty = &d
			}
		}
	}
	return e
}

// promSnapshot is a parsed Prometheus text exposition: one value per
// series, keyed by the series line's name and labels.
type promSnapshot map[string]float64

func parseProm(r io.Reader) promSnapshot {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// renderProm snapshots an in-process metrics registry.
func renderProm(write func(io.Writer)) promSnapshot {
	var b bytes.Buffer
	write(&b)
	return parseProm(&b)
}

// delta returns after − before for one series (absent counts as 0).
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// histMeanMs returns the mean of a histogram's observations between two
// snapshots, in milliseconds, or 0 when nothing was observed.
func histMeanMs(before, after promSnapshot, name, labels string) float64 {
	n := delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum"+labels) / n * 1000
}

// quantile returns the Harrell-Davis estimate of the q-quantile of xs:
// the mean of the order statistics, the i-th of n weighted by the
// probability a Beta(q(n+1), (1-q)(n+1)) variable has of falling in
// [i/n, (i+1)/n]. It uses every sample, not the one or two order
// statistics a sample quantile reads, so it varies less from run to
// run where the samples are sparse. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	// Each interval's probability by the midpoint rule, then
	// normalised, which also absorbs the rule's error at the ends.
	const steps = 64
	var sum, total float64
	for i, v := range s {
		var w float64
		for k := 0; k < steps; k++ {
			x := (float64(i) + (float64(k)+0.5)/steps) / float64(n)
			w += math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - la - lb + lab)
		}
		sum += w * v
		total += w
	}
	return sum / total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
