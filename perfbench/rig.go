package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/service"
	"asyncmediator/pkg/client"
)

// workload is one named traffic mix. Every workload is a closed loop of
// `clients` callers, each waiting for its play to finish before it
// starts the next, against farms of two workers.
type workload struct {
	name string
	// spec is the session spec every play posts (Seed and, for a
	// cluster, Peers are filled in per play and per boot).
	spec api.SessionSpec
	// store turns on the durable store, so terminal sessions beyond
	// cacheBound spill to it, and adds an evicted read per play.
	store bool
	// daemons is the number of farms; above one, players 2 and 3 go to
	// the second daemon and player 4 to the third.
	daemons int
	// warmup is the number of plays each client makes during set-up.
	warmup int
	// tail is the percentile reported as play_ms_tail: the highest one
	// with at least ten samples beyond it at the benchmark's run length.
	tail float64
}

const (
	clients    = 2
	farmWorker = 2
	// setupReps is how often a run sets the rig up; setup_s is the median.
	setupReps = 5
	// playTimeout bounds one play's create-to-terminal wait.
	playTimeout = 60 * time.Second
)

// cacheBound sizes every bounded in-memory cache of the farms: live
// sessions (MaxLiveSessions) and retained traces (TraceRetention). The
// warm-up fills both, so the live heap is in its steady state from the
// start of the window, as on a long-running daemon, instead of growing
// with the number of plays a run happens to complete.
const cacheBound = 8

var workloads = []workload{
	{
		// The zero spec is the default serving configuration: section64,
		// n=5, k=0, t=1, Theorem 4.1, roundrobin, sim backend.
		name:  "farm-n5",
		store: true, daemons: 1,
		// One evicted-read lag of plays per client, so reads start with
		// the window.
		warmup: cacheBound,
		tail:   0.99,
	},
	{
		// Not listed in BENCHMARK.json: its run-to-run spread on a shared
		// 2-vCPU host exceeded the benchmark's bounds (see README.md). It
		// stays runnable for the per-layer ledger of full-scan schedulers.
		name:    "farm-n7-random",
		spec:    api.SessionSpec{N: 7, K: 1, T: 1, Variant: "4.2", Scheduler: "random"},
		daemons: 1, warmup: cacheBound / clients,
		tail: 0.90,
	},
	{
		name:    "cluster-3d",
		spec:    api.SessionSpec{N: 5, T: 1, Variant: "4.1"},
		daemons: 3, warmup: cacheBound / clients,
		tail: 0.90,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// daemon is one farm behind its own loopback HTTP listener, as
// cmd/mediatord would serve it.
type daemon struct {
	svc *service.Service
	srv *http.Server
	url string
	api *client.Client
	// served is closed when the HTTP server's goroutine has returned.
	served chan struct{}
}

func bootDaemon(cfg service.Config) (*daemon, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if d.api, err = client.New(d.url, client.WithRetries(0)); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	_ = d.srv.Close()
	<-d.served
	d.svc.Close()
}

// rig is one booted topology: daemons[0] is the daemon clients call.
type rig struct {
	w       workload
	spec    api.SessionSpec
	daemons []*daemon
	callers []*client.Client
	dir     string
	// history holds each client's terminal plays in order, the pool the
	// evicted reads draw from.
	history [clients][]play
}

// boot starts the workload's daemons (opening the store in a fresh
// directory under dir) and the clients' SDK handles.
func boot(w workload, dir string) (*rig, error) {
	r := &rig{w: w, spec: w.spec, dir: dir}
	for i := 0; i < w.daemons; i++ {
		cfg := service.Config{Workers: farmWorker, MaxLiveSessions: cacheBound, TraceRetention: cacheBound}
		if w.store && i == 0 {
			cfg.DataDir = filepath.Join(dir, "store")
		}
		d, err := bootDaemon(cfg)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("boot daemon %d: %w", i, err)
		}
		r.daemons = append(r.daemons, d)
	}
	if w.daemons == 3 {
		r.spec.Peers = []api.PeerSpec{
			{Index: 2, Addr: r.daemons[1].url},
			{Index: 3, Addr: r.daemons[1].url},
			{Index: 4, Addr: r.daemons[2].url},
		}
	}
	for i := 0; i < clients; i++ {
		c, err := client.New(r.daemons[0].url, client.WithRetries(0))
		if err != nil {
			r.close()
			return nil, err
		}
		r.callers = append(r.callers, c)
	}
	return r, nil
}

func (r *rig) close() {
	for i := len(r.daemons) - 1; i >= 0; i-- {
		r.daemons[i].close()
	}
	_ = os.RemoveAll(r.dir)
}

// play is one client-observed play.
type play struct {
	seed    int64
	id      string
	latency time.Duration // create sent to terminal view received
	end     time.Time
	// create and submit time the two POSTs (traced runs only).
	create, submit time.Duration
	// read times the evicted read that followed this play (zero when
	// there was none); readID is the session it read.
	read   time.Duration
	readID string
	view   api.SessionView // terminal, trimmed to what checks and replays read
	err    error
}

// playSeed derives the spec.Seed of a client's j-th play from the
// workload seed, so a traced run replays the same plays. Warm-up plays
// use clients >= the closed loop's.
func playSeed(seed int64, client, j int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(client)<<40 ^ uint64(j)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// playOnce runs one play through the /v1 API: create, submit the type
// profile, long-poll to terminal.
func (r *rig) playOnce(ctx context.Context, c *client.Client, seed int64, traced bool) play {
	p := play{seed: seed}
	spec := r.spec
	spec.Seed = &seed
	n := spec.N
	if n == 0 {
		n = 5
	}
	ctx, cancel := context.WithTimeout(ctx, playTimeout)
	defer cancel()
	t0 := time.Now()
	h, err := c.CreateSession(ctx, spec)
	if err != nil {
		p.err = fmt.Errorf("create: %w", err)
		return p
	}
	p.id = h.ID
	t1 := time.Now()
	if _, err := c.SubmitTypes(ctx, h.ID, make([]int, n)); err != nil {
		p.err = fmt.Errorf("submit %s: %w", h.ID, err)
		return p
	}
	t2 := time.Now()
	v, err := c.WaitSession(ctx, h.ID)
	p.end = time.Now()
	p.latency = p.end.Sub(t0)
	if traced {
		p.create, p.submit = t1.Sub(t0), t2.Sub(t1)
	}
	if err != nil {
		p.err = fmt.Errorf("wait %s: %w", h.ID, err)
		return p
	}
	// The harness keeps every play's view until the replays, inside the
	// heap it measures: drop what no check or replay reads.
	v.Trace, v.Utilities, v.Types, v.Placement = nil, nil, nil, nil
	p.view = v
	return p
}

// readEvicted reads back, through GET /v1/sessions/{id}, the client's
// play cacheBound plays ago, which the farm has spilled to the store.
func (r *rig) readEvicted(ctx context.Context, ci int, p *play) {
	h := r.history[ci]
	if !r.w.store || len(h) < cacheBound {
		return
	}
	old := h[len(h)-cacheBound]
	ctx, cancel := context.WithTimeout(ctx, playTimeout)
	defer cancel()
	t := time.Now()
	v, err := r.callers[ci].GetSession(ctx, old.id)
	p.read = time.Since(t)
	p.readID = old.id
	switch {
	case err != nil:
		p.err = fmt.Errorf("evicted read %s: %w", old.id, err)
	case !sameOutcome(v, old.view):
		p.err = fmt.Errorf("evicted read %s: store returned %s %v steps=%d msgs=%d, play ended %s %v steps=%d msgs=%d",
			old.id, v.State, v.Profile, v.Steps, v.MsgsSent, old.view.State, old.view.Profile, old.view.Steps, old.view.MsgsSent)
	default:
		if _, live := r.daemons[0].svc.Session(old.id); live {
			p.err = fmt.Errorf("evicted read %s: session is still in memory", old.id)
		}
	}
}

func sameOutcome(a, b api.SessionView) bool {
	return a.State == b.State && a.Steps == b.Steps && a.MsgsSent == b.MsgsSent && slices.Equal(a.Profile, b.Profile)
}

// loop is the closed loop: every client plays back to back until the
// deadline, then the loop waits for the plays in flight. Plays carry
// seeds playSeed(seed, base+client, j).
func (r *rig) loop(ctx context.Context, seed int64, base int, deadline time.Time, limit int, traced bool) []play {
	var (
		mu  sync.Mutex
		out []play
		wg  sync.WaitGroup
	)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var mine []play
			for j := 0; (limit == 0 || j < limit) && (deadline.IsZero() || time.Now().Before(deadline)); j++ {
				p := r.playOnce(ctx, r.callers[ci], playSeed(seed, base+ci, j), traced)
				if p.err == nil {
					r.readEvicted(ctx, ci, &p)
					r.history[ci] = append(r.history[ci], p)
				}
				mine = append(mine, p)
				if p.err != nil {
					break // the run fails; stop loading the farm
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	return out
}

// setUp boots the rig and plays the warm-up until lazy set-up (gob
// registration, NTT plans, the transport mesh) is done. It returns the
// rig and how long that took.
func setUp(ctx context.Context, w workload, dir string, seed int64, rep int) (*rig, time.Duration, error) {
	t := time.Now()
	r, err := boot(w, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range r.loop(ctx, seed, clients*(rep+1), time.Time{}, w.warmup, false) {
		if err := checkBasic(p); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, time.Since(t), nil
}

// checkBasic is the correctness check every play must pass: terminal
// done, not deadlocked, a unanimous profile in the Section 6.4
// mediator's support {0, 1}, and messages sent.
func checkBasic(p play) error {
	if p.err != nil {
		return p.err
	}
	v := p.view
	if v.State != api.StateDone {
		return fmt.Errorf("play %s (seed %d) ended %s: %s", v.ID, p.seed, v.State, v.Error)
	}
	if v.Deadlock {
		return fmt.Errorf("play %s (seed %d) deadlocked", v.ID, p.seed)
	}
	if len(v.Profile) == 0 {
		return fmt.Errorf("play %s (seed %d) has no profile", v.ID, p.seed)
	}
	for _, a := range v.Profile {
		if a != v.Profile[0] || (a != 0 && a != 1) {
			return fmt.Errorf("play %s (seed %d) profile %v is not a unanimous recommendation", v.ID, p.seed, v.Profile)
		}
	}
	if v.MsgsSent <= 0 {
		return fmt.Errorf("play %s (seed %d) sent no messages", v.ID, p.seed)
	}
	return nil
}

// stats reads GET /v1/stats from every daemon.
func (r *rig) stats(ctx context.Context) ([]api.Stats, error) {
	out := make([]api.Stats, len(r.daemons))
	for i, d := range r.daemons {
		st, err := d.api.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("stats of daemon %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}
