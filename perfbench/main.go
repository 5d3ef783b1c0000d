// Command perfbench is the repository benchmark. It boots session farms
// in-process, each behind its own loopback HTTP listener, and drives
// them through the public /v1 API with pkg/client exactly as users do:
// a closed loop of two clients, each creating a session, submitting its
// types and long-polling to the terminal view before starting the next.
//
// A run measures one named workload for --seconds and prints every
// end-to-end metric (--trace 0) or the per-layer ledger (--trace 1),
// then one JSON object as its last line. Every play is checked: farm
// plays must match their core.Run replay at the same seed, cluster
// plays must end done with a unanimous recommendation. A failed check
// fails the run.
//
// The per-layer ledger is measured from outside: the harness times its
// calls into each layer's public functions (the SDK, /v1/stats, core.Run
// through RunConfig.Wrap and a timing async.Scheduler, wire.NewLocalMesh,
// the wire codec) and adds no instrumentation inside the program.
//
//	bash perfbench/run.sh --workload farm-n5 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"asyncmediator/api"
)

// scratchDir, relative to the repository root the benchmark runs from,
// holds the farms' temporary stores (run.sh builds there too).
const scratchDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; every play's spec.Seed derives from it")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ledger")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !out.Correct {
				continue // a failed run reports what it could measure
			}
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		fmt.Printf("%-30s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what one run found.
type measurement struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// measure sets the workload up setupReps times, keeps the last rig, runs
// the closed loop for the window and checks every play.
func measure(w workload, seed int64, window time.Duration, traced bool, dir string) (*measurement, error) {
	ctx := context.Background()
	budget := time.Now().Add(replayBudget)
	pastBudget := func() bool { return time.Now().After(budget) }
	var (
		r      *rig
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.close()
		}
		var (
			d   time.Duration
			err error
		)
		r, d, err = setUp(ctx, w, filepath.Join(dir, fmt.Sprint("rig-", rep)), seed, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.close()

	var before []api.Stats
	if traced {
		var err error
		if before, err = r.stats(ctx); err != nil {
			return nil, err
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := cpuTime()
	heap := startHeapSampler()
	start := time.Now()
	plays := r.loop(ctx, seed, 0, start.Add(window), 0, traced)
	heapSamples := heap.stop()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)

	m := &measurement{attempted: len(plays), values: map[string]float64{}}
	var last time.Time
	var done []play
	for _, p := range plays {
		if err := checkBasic(p); err != nil {
			m.failed++
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
			continue
		}
		done = append(done, p)
		if p.end.After(last) {
			last = p.end
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	if len(done) == 0 {
		return nil, fmt.Errorf("no play completed")
	}
	lat := make([]float64, len(done))
	for i, p := range done {
		lat[i] = ms(p.latency)
	}
	m.note("workload %s: %d plays attempted, %d completed in %.3fs, play_ms_tail is p%g (%d samples beyond)",
		w.name, m.attempted, len(done), last.Sub(start).Seconds(), w.tail*100, beyond(lat, w.tail))

	var (
		cores, plain []coreReplay
		mesh, bare   []meshReplay
		errs         []error
	)
	if w.daemons == 1 {
		plain, cores, errs = replayFarm(done, traced, pastBudget)
	} else if traced {
		var err error
		if bare, mesh, err = meshAll(done, pastBudget); err != nil {
			errs = append(errs, err)
		}
	}
	for _, err := range errs {
		m.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
	if replayed := len(cores) + len(mesh); traced && replayed < len(done) && len(errs) == 0 {
		m.note("traced replays covered the first %d of %d plays before the replay budget ran out", replayed, len(done))
	}

	if !traced {
		m.values["plays_per_s"] = float64(len(done)) / last.Sub(start).Seconds()
		m.values["play_ms_p50"] = quantile(lat, 0.5)
		m.values["play_ms_tail"] = quantile(lat, w.tail)
		m.values["cpu_ms_per_play"] = per(ms(cpu), len(done))
		m.values["live_heap_mb_p90"] = quantile(heapSamples, 0.9) / 1e6
		m.values["ok_frac"] = 1 - float64(m.failed)/float64(m.attempted)
		m.values["setup_s"] = quantile(setups, 0.5)
		return m, nil
	}
	after, err := r.stats(ctx)
	if err != nil {
		return nil, err
	}
	ledger(m, w, done, cores, plain, mesh, bare, before, after, &mem0, &mem1)
	return m, nil
}

// replayBudget bounds a traced run from the start of set-up to the end
// of its traced replays, so that it ends inside three minutes on a slow
// machine too: plays not yet replayed by then are left out of the
// replay-based ledger rows, and the run says so.
const replayBudget = 140 * time.Second

// replayFarm replays every farm play through core.Run on two
// goroutines and returns one error per play that failed its replay
// check. Traced, it replays each play untraced and then traced, back to
// back so both see the same machine, until stop reports true; the rest
// are replayed untraced only. cores holds the traced replays of the
// prefix covered.
func replayFarm(plays []play, traced bool, stop func() bool) (plain, cores []coreReplay, failed []error) {
	plain = make([]coreReplay, len(plays))
	cores = make([]coreReplay, len(plays))
	errs := make([]error, len(plays))
	k := 0
	if traced {
		k = parallel(len(plays), 2, stop, func(i int) {
			if plain[i], errs[i] = replayCore(plays[i].view, false); errs[i] == nil {
				cores[i], errs[i] = replayCore(plays[i].view, true)
			}
		})
	}
	parallel(len(plays)-k, 2, nil, func(i int) {
		plain[k+i], errs[k+i] = replayCore(plays[k+i].view, false)
	})
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return plain, cores[:k], failed
}

// meshAll replays cluster plays on a loopback mesh one at a time, in
// order, each first untraced and then traced, until stop reports true.
func meshAll(plays []play, stop func() bool) (bare, traced []meshReplay, err error) {
	for _, p := range plays {
		if stop() {
			break
		}
		b, err := replayMesh(p.view, false)
		if err != nil {
			return nil, nil, err
		}
		t, err := replayMesh(p.view, true)
		if err != nil {
			return nil, nil, err
		}
		bare, traced = append(bare, b), append(traced, t)
	}
	return bare, traced, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls, every 5 ms, the live heap the last garbage
// collection marked, through runtime/metrics (which reads without
// stopping the world). The peak of the total heap between collections,
// or even of the live heap, swings with GC pacing under a fast-allocating
// play and does not repeat from run to run; a high percentile of the
// live heap does.
type heapSampler struct {
	stopc   chan struct{}
	samples chan []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), samples: make(chan []float64)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		var samples []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64()))
			select {
			case <-tick.C:
			case <-h.stopc:
				h.samples <- samples
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples in bytes.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	return <-h.samples
}
