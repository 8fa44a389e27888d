package main

import (
	"runtime"

	"repro/internal/obs"
)

// spanMS is the total time, in ms, the program recorded under the named
// spans in reg's m3d_span_seconds histograms.
func spanMS(reg *obs.Registry, names ...string) float64 {
	s := 0.0
	for _, n := range names {
		s += reg.Histogram("m3d_span_seconds", obs.DurationBuckets, "span", n).Sum()
	}
	return s * 1000
}

// spanStats reports, per diagnosed chip, the stage times the diagnosis
// engines and the policy record as spans: the monolithic engine's
// diagnosis.* spans or the hierarchical engine's hier.* spans (only one
// kind is ever present), and the three GNN forward passes.
func spanStats(reg *obs.Registry, m metrics, n int) {
	per := func(v float64) float64 { return v / float64(n) }
	m.set("diagnosis.extract_ms", "ms", per(spanMS(reg, "diagnosis.extract", "hier.votes")))
	m.set("diagnosis.score_ms", "ms", per(spanMS(reg, "diagnosis.score", "hier.score")))
	m.set("diagnosis.refine_ms", "ms", per(spanMS(reg, "diagnosis.refine", "hier.refine")))
	m.set("gnn.forward_ms", "ms", per(spanMS(reg, "gnn.forward.tier", "gnn.forward.miv", "gnn.forward.cls")))
}

// coreLayers reports, per diagnosed chip, the layer split of diagnoses the
// program ran itself (behind the server or the campaign engine), from the
// spans core.Framework records around them: back-trace and policy have
// their own spans, and diagnosis is the rest of the core span. The
// scored-candidate counter is recorded by single-fault diagnosis only.
func coreLayers(reg *obs.Registry, m metrics, n int) {
	per := func(v float64) float64 { return v / float64(n) }
	bt := spanMS(reg, "hgraph.backtrace", "hier.backtrace")
	pol := spanMS(reg, "policy.apply")
	m.set("diagnosis.ms", "ms", per(spanMS(reg, "core.diagnose", "core.diagnose_multi")-bt-pol))
	m.set("backtrace.ms", "ms", per(bt))
	m.set("policy.ms", "ms", per(pol))
	m.set("diagnosis.candidates", "count", per(float64(reg.Counter("m3d_diag_candidates_scored_total").Value())))
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}
