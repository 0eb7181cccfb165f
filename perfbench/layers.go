package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"chc/internal/polytope"
	"chc/internal/telemetry"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them on every workload; a layer a workload does not reach
// (or that cannot be wrapped from outside on that path) reads 0. Counts and
// times are per instance unless the name says otherwise.
var layerUnits = map[string]string{
	"dist.deliveries":                  "count",
	"dist.channels_per_pick":           "count",
	"dist.self_ms":                     "ms",
	"core.handler_ms":                  "ms",
	"core.msgs_stablevector":           "count",
	"core.msgs_round":                  "count",
	"core.decided_round":               "count",
	"geom.round0_ms":                   "ms",
	"geom.average_ms":                  "ms",
	"lp.solves":                        "count",
	"polytope.hull_cache_hit_ratio":    "ratio",
	"polytope.combine_cache_hit_ratio": "ratio",
	"runtime.sends_per_instance":       "count",
	"rlink.frames_per_instance":        "count",
	"rlink.retransmits_per_instance":   "count",
	"wire.frames_per_write":            "count",
	"wire.bytes_per_instance":          "B",
	"wal.bytes_per_instance":           "B",
	"wal.snapshot_bytes_per_instance":  "B",
	"wal.syncs_per_instance":           "count",
	"wal.sync_ms_per_instance":         "ms",
	"wal.write_ms_per_instance":        "ms",
	"wal.checkpoints":                  "count",
	"service.submit_ms_p50":            "ms",
	"service.in_service_ms_p50":        "ms",
	"service.api_ms_p50":               "ms",
	"service.rate_last_vs_first_fifth": "ratio",
	"go.alloc_bytes_per_instance":      "B",
	"go.allocs_per_instance":           "count",
	"go.gc_cpu_ms_per_instance":        "ms",
	"go.heap_live_mb_end":              "MB",
	"trace.instances_per_s":            "1/s",
	"trace.overhead_pct":               "%",
}

// perLayer returns every per-layer metric at 0 with its unit.
func perLayer() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// layerTable renders the per-layer metrics as comment lines, sorted.
func layerTable(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{"# layer metric                          value        unit"}
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("# %-36s %12.4f %s", name, m[name].Value, m[name].Unit))
	}
	return lines
}

// counterTotal sums every sample of the named counter family.
func counterTotal(s *telemetry.Snapshot, name string) float64 {
	total := 0.0
	for _, f := range s.Metrics {
		if f.Name != name {
			continue
		}
		for _, smp := range f.Samples {
			total += smp.Value
		}
	}
	return total
}

// histTotals sums the observation sums and counts of every sample of the
// named histogram family.
func histTotals(s *telemetry.Snapshot, name string) (sum, count float64) {
	for _, f := range s.Metrics {
		if f.Name != name {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Histogram != nil {
				sum += smp.Histogram.Sum
				count += float64(smp.Histogram.Count)
			}
		}
	}
	return sum, count
}

// goMetricNames are the Go runtime metrics read around a traced section.
var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// probe holds the process-wide readings taken before a measured section.
type probe struct {
	tel          *telemetry.Snapshot
	rt           map[string]float64
	hullH, hullM int64
	combH, combM int64
}

func startProbe() probe {
	p := probe{tel: telemetry.Default().Snapshot(), rt: readGoMetrics()}
	p.hullH, p.hullM = polytope.HullCacheStats()
	p.combH, p.combM = polytope.CombineCacheStats()
	return p
}

// finish fills the metrics every traced pass shares from the readings after
// n instances that took wall — LP solves, cache hit ratios, the go.* figures
// and the traced throughput — and returns the closing telemetry snapshot.
func (p probe) finish(m map[string]metric, n float64, wall time.Duration) *telemetry.Snapshot {
	tel, rt := telemetry.Default().Snapshot(), readGoMetrics()
	hullH, hullM := polytope.HullCacheStats()
	combH, combM := polytope.CombineCacheStats()
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	delta := func(name string) float64 { return rt[name] - p.rt[name] }
	set("lp.solves", (counterTotal(tel, "chc_lp_solves_total")-counterTotal(p.tel, "chc_lp_solves_total"))/n)
	set("polytope.hull_cache_hit_ratio", ratio(hullH-p.hullH, hullH-p.hullH+hullM-p.hullM))
	set("polytope.combine_cache_hit_ratio", ratio(combH-p.combH, combH-p.combH+combM-p.combM))
	set("go.alloc_bytes_per_instance", delta("/gc/heap/allocs:bytes")/n)
	set("go.allocs_per_instance", delta("/gc/heap/allocs:objects")/n)
	set("go.gc_cpu_ms_per_instance", 1e3*delta("/cpu/classes/gc/total:cpu-seconds")/n)
	set("go.heap_live_mb_end", rt["/gc/heap/live:bytes"]/(1<<20))
	set("trace.instances_per_s", n/wall.Seconds())
	return tel
}

func readGoMetrics() map[string]float64 {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, name := range goMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// withTraceOverhead adds the untraced pass's operations to the traced
// outcome and records how far the traced throughput fell below the
// untraced pass's instances_per_s.
func withTraceOverhead(traced, untraced outcome) outcome {
	traced.attempted += untraced.attempted
	traced.failed += untraced.failed
	if m := traced.metrics; m != nil {
		base := untraced.metrics["instances_per_s"].Value
		m["trace.overhead_pct"] = metric{100 * (base - m["trace.instances_per_s"].Value) / base, layerUnits["trace.overhead_pct"]}
	}
	return traced
}

// resetCaches empties the process-wide hull and combine caches, so a traced
// pass over the instances an untraced pass just ran computes everything
// afresh instead of being served the repeat.
func resetCaches() {
	polytope.SetHullCaching(false)
	polytope.SetHullCaching(true)
}
