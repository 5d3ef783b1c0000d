package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The tables below are the single
// source of the names, units and bounds that BENCHMARK.json lists; the
// package test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (zero for
	// per-layer metrics, which carry no bound).
	bound float64
}

// endToEnd are the metrics a user of the farm sees, measured with the
// harness's own tracing off.
var endToEnd = []metricDef{
	{"plays_per_s", "1/s", "higher", 0.25},
	{"play_ms_p50", "ms", "lower", 0.25},
	{"play_ms_tail", "ms", "lower", 0.25},
	{"cpu_ms_per_play", "ms", "lower", 0.25},
	// Stands in for a peak heap, which does not repeat across runs
	// (see heapSampler).
	{"live_heap_mb_p90", "MB", "lower", 0.25},
	// ok_frac is 1 - failed/attempted: the complement keeps the metric
	// non-zero, and any failure already fails the run.
	{"ok_frac", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one ledger for every workload.
// A layer that does not run on a workload reports 0 there.
var perLayer = []metricDef{
	{"http.create_ms_p50", "ms", "lower", 0},
	{"http.submit_ms_p50", "ms", "lower", 0},
	{"http.read_ms_p50", "ms", "lower", 0},
	{"service.overhead_ms_p50", "ms", "lower", 0},
	{"service.run_ms_p50", "ms", "lower", 0},
	{"service.cluster_coord_ms_p50", "ms", "lower", 0},
	{"service.evicted_per_play", "count", "lower", 0},
	{"pool.queue_wait_ms_per_play", "ms", "lower", 0},
	{"store.wal_appends_per_play", "count", "lower", 0},
	{"store.compactions_per_run", "count", "lower", 0},
	{"core.run_ms_p50", "ms", "lower", 0},
	{"async.self_ms_per_play", "ms", "lower", 0},
	{"async.self_ns_per_step", "ns", "lower", 0},
	{"async.sched_next_ns_per_step", "ns", "lower", 0},
	{"async.pending_mean", "count", "lower", 0},
	{"async.steps_per_play", "count", "lower", 0},
	{"async.msgs_per_play", "count", "lower", 0},
	{"proto.deliver_ms_per_play", "ms", "lower", 0},
	{"rbc.deliver_ms_per_play", "ms", "lower", 0},
	{"ba.deliver_ms_per_play", "ms", "lower", 0},
	{"avss.deliver_ms_per_play", "ms", "lower", 0},
	{"mediator.deliver_ms_per_play", "ms", "lower", 0},
	{"wire.mesh_play_ms_p50", "ms", "lower", 0},
	{"wire.codec_us_per_frame", "us", "lower", 0},
	{"wire.codec_allocs_per_frame", "count", "lower", 0},
	{"wire.bytes_per_frame", "B", "lower", 0},
	{"cluster.frames_per_play", "count", "lower", 0},
	{"cluster.bytes_per_play", "B", "lower", 0},
	{"cluster.resends_per_play", "count", "lower", 0},
	{"cluster.redials_per_run", "count", "lower", 0},
	{"go.alloc_mb_per_play", "MB", "lower", 0},
	{"go.gc_per_play", "count", "lower", 0},
	{"ledger.unattributed_pct", "%", "lower", 0},
	{"ledger.replay_gap_pct", "%", "lower", 0},
	{"ledger.replay_gap_flag", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides a total by a play count, 0 for no plays.
func per(total float64, plays int) float64 {
	if plays == 0 {
		return 0
	}
	return total / float64(plays)
}
