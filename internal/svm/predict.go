package svm

import (
	"time"

	"frappe/internal/workerpool"
)

// ensurePredictCache builds the model's exact compiled form — the one
// flattened support-vector matrix plus squared norms that CompileExact
// also ships — so every prediction costs one dot product per support
// vector over contiguous memory. Built once, lazily, so models arriving
// via gob Load get it too.
//
// A corrupt gob load can present zero-dimensional or ragged support
// vectors; Compile refuses those, which leaves the cache nil, and every
// decision value degrades to the bias instead of indexing out of bounds.
func (m *Model) ensurePredictCache() {
	m.predOnce.Do(func() {
		if c, err := Compile(m, CompileOptions{Mode: CompileExact}); err == nil {
			m.exact = c
		}
	})
}

// DecisionValue returns f(x) = sum coef_i K(sv_i, x) + b. Positive values
// classify as the +1 class.
func (m *Model) DecisionValue(x []float64) float64 {
	m.ensurePredictCache()
	if m.exact == nil {
		return m.B
	}
	return m.exact.exactDecision(x)
}

// DecisionValues computes f(x) for every row of xs, fanning the rows out
// over a bounded worker pool (GOMAXPROCS wide). Each row writes only its
// own output slot, so the result is identical to calling DecisionValue in
// a loop — for any worker count. An empty batch returns immediately and
// leaves the batch-prediction metrics untouched: observing a zero-width
// "batch" would skew the duration histogram and pin the worker gauge to a
// meaningless value.
func (m *Model) DecisionValues(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return []float64{}
	}
	start := time.Now()
	m.ensurePredictCache()
	out := make([]float64, len(xs))
	if m.exact == nil {
		for i := range out {
			out[i] = m.B
		}
		return out
	}
	workers := workerpool.Clamp(0, len(xs))
	batchPredictWorkers.With().Set(float64(workers))
	workerpool.Run(len(xs), workers, func(i int) {
		out[i] = m.exact.exactDecision(xs[i])
	})
	batchPredictDuration.With().Observe(time.Since(start).Seconds())
	return out
}

// Predict returns +1 or -1 for x.
func (m *Model) Predict(x []float64) float64 {
	if m.DecisionValue(x) >= 0 {
		return 1
	}
	return -1
}
