package service

import (
	"maps"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/obs"
)

// Record is one completed session's contribution to the farm statistics.
type Record struct {
	Failed     bool
	Deadlocked bool
	Steps      int64
	Sent       int64
	Delivered  int64
	// ProfileKey is the outcome profile's canonical key ("" for failures).
	ProfileKey string
	// Variant is the theorem label the session ran ("4.1".."4.5"); it keys
	// the per-variant duration histogram.
	Variant string
	// Duration is the session's running wall time (zero: not recorded).
	Duration time.Duration
}

// durBounds are the histogram bucket upper bounds in seconds (exponential,
// ms to minute scale — a hosted play is milliseconds in the simulator and
// can reach seconds on the wire backend). The final implicit bucket is
// +Inf.
var durBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// DurationStats is one variant's session-duration summary: the wire
// shape (api.DurationStats) rendered into /v1/stats and /metrics.
type DurationStats = api.DurationStats

// DurationBounds exposes the histogram boundaries (seconds) for renderers.
func DurationBounds() []float64 {
	out := make([]float64, len(durBounds))
	copy(out, durBounds)
	return out
}

// Totals is an aggregated snapshot of the farm's plays — the wire shape
// (api.StatsTotals) embedded in /v1/stats.
type Totals = api.StatsTotals

// playStats is the farm's play aggregate: the six play counters, the
// outcome-profile counts and one duration histogram per theorem variant,
// under one mutex. A play is folded in before its session turns
// terminal, so any read after Done() includes it.
type playStats struct {
	mu        sync.Mutex
	tot       Totals // counters and Outcomes; Durations is built per snapshot
	durations map[string]*obs.Histogram
}

func newPlayStats() *playStats {
	return &playStats{
		tot:       Totals{Outcomes: make(map[string]int64)},
		durations: make(map[string]*obs.Histogram),
	}
}

// record folds one session result into the aggregate.
func (p *playStats) record(rec Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tot.Sessions++
	if rec.Failed {
		p.tot.Failed++
	}
	if rec.Deadlocked {
		p.tot.Deadlocked++
	}
	p.tot.Steps += rec.Steps
	p.tot.MessagesSent += rec.Sent
	p.tot.MessagesDelivered += rec.Delivered
	if rec.ProfileKey != "" {
		p.tot.Outcomes[rec.ProfileKey]++
	}
	if rec.Duration > 0 && rec.Variant != "" {
		h := p.durations[rec.Variant]
		if h == nil {
			h = obs.NewHistogram(durBounds)
			p.durations[rec.Variant] = h
		}
		h.Observe(rec.Duration.Seconds())
	}
}

// snapshot copies the counters and renders the duration histograms.
func (p *playStats) snapshot() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tot
	t.Outcomes = maps.Clone(p.tot.Outcomes)
	t.Durations = make(map[string]DurationStats, len(p.durations))
	for v, h := range p.durations {
		s := h.Snapshot()
		ds := DurationStats{
			Count:      s.Count,
			Sum:        s.Sum,
			P50Seconds: s.Quantile(0.50),
			P99Seconds: s.Quantile(0.99),
			Buckets:    s.Counts,
		}
		if s.Count > 0 {
			ds.MeanSeconds = s.Sum / float64(s.Count)
		}
		t.Durations[v] = ds
	}
	return t
}
