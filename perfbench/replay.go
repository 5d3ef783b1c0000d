package main

import (
	"fmt"
	"path"
	"reflect"
	"runtime"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/wire"
)

// The protocol packages Deliver time is split by: the Go package of each
// delivered proto.Envelope's Body.
var protoPkgs = []string{"rbc", "ba", "avss", "mediator"}

// procClock times one process's Start and Deliver calls from outside.
// Each wrapped process owns its clock, so mesh nodes running on their
// own goroutines never share one.
type procClock struct {
	start   time.Duration
	deliver time.Duration
	byPkg   [4]time.Duration // indexed like protoPkgs
	// payloads collects every delivered payload when keep is set.
	keep     bool
	payloads []any
}

type timedProc struct {
	inner async.Process
	c     *procClock
}

func (p timedProc) Start(env *async.Env) {
	t := time.Now()
	p.inner.Start(env)
	p.c.start += time.Since(t)
}

func (p timedProc) Deliver(env *async.Env, msg async.Message) {
	t := time.Now()
	p.inner.Deliver(env, msg)
	d := time.Since(t)
	p.c.deliver += d
	if i := pkgIndex(msg.Payload); i >= 0 {
		p.c.byPkg[i] += d
	}
	if p.c.keep {
		p.c.payloads = append(p.c.payloads, msg.Payload)
	}
}

// pkgIndex maps a payload to its protoPkgs slot (-1 for none).
func pkgIndex(payload any) int {
	env, ok := payload.(proto.Envelope)
	if !ok || env.Body == nil {
		return -1
	}
	t := reflect.TypeOf(env.Body)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	name := path.Base(t.PkgPath())
	for i, p := range protoPkgs {
		if p == name {
			return i
		}
	}
	return -1
}

// timedSched times the scheduler's Next and samples the pending set it
// is shown.
type timedSched struct {
	inner   async.Scheduler
	next    time.Duration
	calls   int64
	pending int64
}

func (s *timedSched) Next(v *async.View) (async.Event, bool) {
	t := time.Now()
	ev, ok := s.inner.Next(v)
	s.next += time.Since(t)
	s.calls++
	s.pending += int64(len(v.Pending))
	return ev, ok
}

// clocks wraps processes for one replay and sums their clocks.
type clocks struct {
	keep  bool
	procs []*procClock
}

func (c *clocks) wrap(_ int, p async.Process) async.Process {
	pc := &procClock{keep: c.keep}
	c.procs = append(c.procs, pc)
	return timedProc{inner: p, c: pc}
}

func (c *clocks) sum() procClock {
	var s procClock
	for _, pc := range c.procs {
		s.add(*pc)
		s.payloads = append(s.payloads, pc.payloads...)
	}
	return s
}

// replayConfig rebuilds the core.RunConfig the farm ran for a terminal
// session view: its normalized spec, its seed as the run, scheduler and
// coin seed, all-zero types.
func replayConfig(v api.SessionView) (core.RunConfig, error) {
	s := v.Spec
	if s.Game != "section64" {
		return core.RunConfig{}, fmt.Errorf("replay: game %q is not section64", s.Game)
	}
	variant, err := core.ParseVariant(s.Variant)
	if err != nil {
		return core.RunConfig{}, err
	}
	params, err := core.Section64Params(s.N, s.K, s.T, variant)
	if err != nil {
		return core.RunConfig{}, err
	}
	params.CoinSeed = v.Seed
	return core.RunConfig{
		Params:   params,
		Types:    make([]game.Type, s.N),
		Seed:     v.Seed,
		MaxSteps: s.MaxSteps,
	}, nil
}

// coreReplay is one play replayed through core.Run.
type coreReplay struct {
	wall  time.Duration
	steps int
	msgs  int
	// Traced replays only.
	clock procClock
	sched timedSched
}

// replayCore replays a farm play through core.Run with the same named
// scheduler, traced or not, and checks the outcome is identical to the
// farm's: profile, step count and message count.
func replayCore(v api.SessionView, traced bool) (coreReplay, error) {
	cfg, err := replayConfig(v)
	if err != nil {
		return coreReplay{}, err
	}
	sched, err := async.SchedulerByName(v.Spec.Scheduler, v.Seed)
	if err != nil {
		return coreReplay{}, err
	}
	var (
		ts timedSched
		cl clocks
	)
	cfg.Scheduler = sched
	if traced {
		ts.inner = sched
		cfg.Scheduler = &ts
		cfg.Wrap = cl.wrap
	}
	t := time.Now()
	prof, res, err := core.Run(cfg)
	wall := time.Since(t)
	if err != nil {
		return coreReplay{}, fmt.Errorf("replay %s (seed %d): %w", v.ID, v.Seed, err)
	}
	if !sameProfile(prof, v.Profile) || res.Stats.Steps != v.Steps || res.Stats.MessagesSent != v.MsgsSent {
		return coreReplay{}, fmt.Errorf("play %s (seed %d) ended %v steps=%d msgs=%d; core.Run replay gives %v steps=%d msgs=%d",
			v.ID, v.Seed, v.Profile, v.Steps, v.MsgsSent, prof, res.Stats.Steps, res.Stats.MessagesSent)
	}
	return coreReplay{wall: wall, steps: res.Stats.Steps, msgs: res.Stats.MessagesSent, clock: cl.sum(), sched: ts}, nil
}

func sameProfile(p game.Profile, want []int) bool {
	if len(p) != len(want) {
		return false
	}
	for i, a := range p {
		if int(a) != want[i] {
			return false
		}
	}
	return true
}

// meshReplay is one cluster play replayed on a loopback wire mesh.
type meshReplay struct {
	wall  time.Duration
	clock procClock
	// Codec figures over every delivered payload (traced replays only).
	frames int
	codec  time.Duration
	allocs uint64
	bytes  int
}

// meshTimeout bounds one replayed mesh play.
const meshTimeout = 30 * time.Second

// replayMesh replays a cluster play's spec and seed as a wire.NewLocalMesh
// over core.BuildProcs, checks every player decided the same
// recommendation, and, traced, times the gob codec on each payload the
// play delivered.
func replayMesh(v api.SessionView, traced bool) (meshReplay, error) {
	cfg, err := replayConfig(v)
	if err != nil {
		return meshReplay{}, err
	}
	cl := clocks{keep: traced}
	if traced {
		cfg.Wrap = cl.wrap
	}
	t := time.Now()
	procs, err := core.BuildProcs(cfg)
	if err != nil {
		return meshReplay{}, err
	}
	nodes, err := wire.NewLocalMesh(procs, 0, v.Seed)
	if err != nil {
		return meshReplay{}, err
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *wire.Node) {
			defer wg.Done()
			_, _, errs[i] = nd.Run(meshTimeout)
		}(i, nd)
	}
	wg.Wait()
	wall := time.Since(t)
	for _, nd := range nodes {
		nd.Stop()
		nd.Wait()
	}
	var first any
	for i, nd := range nodes {
		if errs[i] != nil {
			return meshReplay{}, fmt.Errorf("mesh replay of %s (seed %d), node %d: %w", v.ID, v.Seed, i, errs[i])
		}
		mv, ok := nd.Remote().Move()
		if !ok {
			return meshReplay{}, fmt.Errorf("mesh replay of %s (seed %d): player %d did not decide", v.ID, v.Seed, i)
		}
		if i == 0 {
			first = mv
		} else if mv != first {
			return meshReplay{}, fmt.Errorf("mesh replay of %s (seed %d): players disagree (%v vs %v)", v.ID, v.Seed, first, mv)
		}
	}
	out := meshReplay{wall: wall, clock: cl.sum()}
	if traced {
		if err := out.timeCodec(); err != nil {
			return meshReplay{}, fmt.Errorf("codec of %s: %w", v.ID, err)
		}
		out.clock.payloads = nil
	}
	return out, nil
}

// timeCodec runs wire.EncodePayload and wire.DecodePayload on every
// delivered payload, counting time, heap allocations and bytes.
func (m *meshReplay) timeCodec() error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for _, p := range m.clock.payloads {
		b, err := wire.EncodePayload(p)
		if err != nil {
			return err
		}
		if _, err := wire.DecodePayload(b); err != nil {
			return err
		}
		m.bytes += len(b)
	}
	m.codec = time.Since(t)
	runtime.ReadMemStats(&after)
	m.allocs = after.Mallocs - before.Mallocs
	m.frames = len(m.clock.payloads)
	return nil
}

// parallel runs fn(0), fn(1), … on `workers` goroutines, handing out
// indices in order until n or until stop (if not nil) reports true, and
// returns how many it handed out: fn ran for exactly the indices below.
func parallel(n, workers int, stop func() bool, fn func(i int)) int {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || (stop != nil && stop()) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				fn(i)
			}
		}()
	}
	wg.Wait()
	return next
}
