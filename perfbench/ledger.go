package main

import (
	"math"
	"runtime"
	"time"

	"asyncmediator/api"
)

// gapFlagPct is the replay gap above which the reconciliation row flags
// a missing layer: the farm's run time and the replay of the same plays
// through the layers below it disagree by more than this share.
const gapFlagPct = 15

// ledger fills the per-layer metrics of a traced run from the plays'
// own timings, /v1/stats deltas across the window (read once every play
// was terminal), Go runtime deltas, and the replays of the same plays.
// cores/plain are the farm plays' traced and untraced core.Run replays;
// mesh/bare the cluster plays' traced and untraced mesh replays. Each
// covers a prefix of plays; plain covers them all.
func ledger(m *measurement, w workload, plays []play, cores, plain []coreReplay, mesh, bare []meshReplay,
	before, after []api.Stats, mem0, mem1 *runtime.MemStats) {
	n := len(plays)
	v := m.values

	// The HTTP path and the service, from each play's own timings and
	// terminal view.
	var create, submit, read, run []float64
	for _, p := range plays {
		create = append(create, ms(p.create))
		submit = append(submit, ms(p.submit))
		run = append(run, p.view.DurationSeconds*1e3)
		if p.readID != "" {
			read = append(read, ms(p.read))
		}
	}
	v["http.create_ms_p50"] = quantile(create, 0.5)
	v["http.submit_ms_p50"] = quantile(submit, 0.5)
	v["http.read_ms_p50"] = 0
	if len(read) > 0 {
		v["http.read_ms_p50"] = quantile(read, 0.5)
	}
	runP50 := quantile(run, 0.5)
	v["service.run_ms_p50"] = runP50

	// The pool, the registry and the store, from the daemon clients call.
	b, a := before[0], after[0]
	qwait := 0.0
	if jobs := a.Pool.Completed - b.Pool.Completed; jobs > 0 {
		qwait = (a.Pool.QueueWaitSeconds - b.Pool.QueueWaitSeconds) * 1e3 / float64(jobs)
	}
	v["pool.queue_wait_ms_per_play"] = qwait
	v["service.evicted_per_play"] = per(float64(a.SessionsEvicted-b.SessionsEvicted), n)
	v["store.wal_appends_per_play"] = 0
	v["store.compactions_per_run"] = 0
	if a.Store != nil && b.Store != nil {
		v["store.wal_appends_per_play"] = per(float64(a.Store.WALAppends-b.Store.WALAppends), n)
		v["store.compactions_per_run"] = float64(a.Store.Compactions - b.Store.Compactions)
	}

	var overhead, unattributed []float64
	for _, p := range plays {
		lat := ms(p.latency)
		run := p.view.DurationSeconds * 1e3
		overhead = append(overhead, lat-qwait-run)
		unattributed = append(unattributed, 100*(1-(ms(p.create)+ms(p.submit)+qwait+run)/lat))
	}
	v["service.overhead_ms_p50"] = quantile(overhead, 0.5)
	v["ledger.unattributed_pct"] = quantile(unattributed, 0.5)

	// The cluster transport, summed over every daemon.
	var dl api.ClusterLinkStats
	for i := range after {
		if a, b := after[i].Cluster, before[i].Cluster; a != nil {
			if b == nil {
				b = &api.ClusterLinkStats{}
			}
			dl.FramesOut += a.FramesOut - b.FramesOut
			dl.BytesOut += a.BytesOut - b.BytesOut
			dl.Resent += a.Resent - b.Resent
			dl.Redials += a.Redials - b.Redials
		}
	}
	v["cluster.frames_per_play"] = per(float64(dl.FramesOut), n)
	v["cluster.bytes_per_play"] = per(float64(dl.BytesOut), n)
	v["cluster.resends_per_play"] = per(float64(dl.Resent), n)
	v["cluster.redials_per_run"] = float64(dl.Redials)

	// The Go runtime of the whole benchmark process.
	v["go.alloc_mb_per_play"] = per(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6, n)
	v["go.gc_per_play"] = per(float64(mem1.NumGC-mem0.NumGC), n)

	// core/async and the protocol, from the replays; layers a workload
	// does not run report 0.
	for _, name := range []string{"core.run_ms_p50", "async.self_ms_per_play", "async.self_ns_per_step",
		"async.sched_next_ns_per_step", "async.pending_mean", "async.steps_per_play", "async.msgs_per_play",
		"service.cluster_coord_ms_p50", "wire.mesh_play_ms_p50", "wire.codec_us_per_frame",
		"wire.codec_allocs_per_frame", "wire.bytes_per_frame"} {
		v[name] = 0
	}
	// Replay-based rows are per replayed play: a traced run may replay
	// only a prefix of its plays (see replayBudget).
	replayed := len(cores) + len(mesh)
	var (
		clock              procClock
		tracedSum, bareSum time.Duration
		replayP50          float64
	)
	if len(cores) > 0 {
		var next time.Duration
		var calls, pending, steps, msgs int64
		for i, c := range cores {
			clock.add(c.clock)
			tracedSum += c.wall
			bareSum += plain[i].wall
			next += c.sched.next
			calls += c.sched.calls
			pending += c.sched.pending
			steps += int64(c.steps)
			msgs += int64(c.msgs)
		}
		walls := make([]float64, len(plain))
		for i, c := range plain {
			walls[i] = ms(c.wall)
		}
		replayP50 = quantile(walls, 0.5)
		self := tracedSum - next - clock.start - clock.deliver
		v["core.run_ms_p50"] = replayP50
		v["async.self_ms_per_play"] = per(ms(self), replayed)
		v["async.self_ns_per_step"] = float64(self) / float64(steps)
		v["async.sched_next_ns_per_step"] = float64(next) / float64(calls)
		v["async.pending_mean"] = float64(pending) / float64(calls)
		v["async.steps_per_play"] = per(float64(steps), replayed)
		v["async.msgs_per_play"] = per(float64(msgs), replayed)
	}
	if len(mesh) > 0 {
		var codec time.Duration
		var frames, bytes int
		var allocs uint64
		walls := make([]float64, len(bare))
		coord := make([]float64, len(bare))
		for i, r := range mesh {
			clock.add(r.clock)
			tracedSum += r.wall
			bareSum += bare[i].wall
			codec += r.codec
			frames += r.frames
			bytes += r.bytes
			allocs += r.allocs
			walls[i] = ms(bare[i].wall)
			coord[i] = ms(plays[i].latency) - walls[i]
		}
		replayP50 = quantile(walls, 0.5)
		v["wire.mesh_play_ms_p50"] = replayP50
		v["service.cluster_coord_ms_p50"] = quantile(coord, 0.5)
		v["wire.codec_us_per_frame"] = float64(codec) / float64(time.Microsecond) / float64(frames)
		v["wire.codec_allocs_per_frame"] = float64(allocs) / float64(frames)
		v["wire.bytes_per_frame"] = float64(bytes) / float64(frames)
	}
	v["proto.deliver_ms_per_play"] = per(ms(clock.deliver), replayed)
	for i, pkg := range protoPkgs {
		v[pkg+".deliver_ms_per_play"] = per(ms(clock.byPkg[i]), replayed)
	}
	v["trace.overhead_pct"] = 100 * (float64(tracedSum)/float64(bareSum) - 1)

	// Reconciliation: the farm's own run time against the replay of the
	// same plays through the layers below it.
	gap := 100 * (runP50 - replayP50) / runP50
	v["ledger.replay_gap_pct"] = gap
	v["ledger.replay_gap_flag"] = 0
	if math.Abs(gap) > gapFlagPct {
		v["ledger.replay_gap_flag"] = 1
		m.note("FLAG %s: service.run_ms_p50 %.3f ms vs replay p50 %.3f ms, gap %.1f%% > %d%%: a layer is missing from the ledger",
			w.name, runP50, replayP50, gap, gapFlagPct)
	}
}

// add folds another clock's totals into c.
func (c *procClock) add(o procClock) {
	c.start += o.start
	c.deliver += o.deliver
	for i := range c.byPkg {
		c.byPkg[i] += o.byPkg[i]
	}
}
