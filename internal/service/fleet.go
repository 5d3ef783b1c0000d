package service

import (
	"fmt"
	"sort"
	"sync"

	"asyncmediator/api"
	"asyncmediator/internal/fleet"
)

// This file wires the fleet telemetry plane (internal/fleet) into the
// farm: the daemon joins the gossip mesh at boot, samples its own load
// into the health summaries it gossips, republishes the rule engine's
// alerts on the event bus (kind "fleet", states "alert.<rule>" /
// "clear.<rule>"), and answers GET /v1/cluster/fleet from the mesh's
// eventually consistent view.

// fleetState is the Service's fleet-plane runtime.
type fleetState struct {
	mesh *fleet.Mesh

	// alertCounts tallies fired alerts per rule for /metrics.
	mu          sync.Mutex
	alertCounts map[string]int64
}

// startFleet joins the gossip mesh when the config asks for one. Called
// from New after the pool and registries exist (the health source reads
// them) but before the readiness gate opens.
func (s *Service) startFleet() error {
	if s.cfg.FleetListen == "" {
		return nil
	}
	if len(s.cfg.FleetPeers) < 2 {
		return fmt.Errorf("service: fleet mode needs the full gossip address table (-fleet-peers), self included")
	}
	// Indices derive from the sorted table, so every daemon given the
	// same -fleet-peers list agrees on the numbering with no registry.
	table := append([]string(nil), s.cfg.FleetPeers...)
	sort.Strings(table)
	self := -1
	for i, a := range table {
		if a == s.cfg.FleetListen {
			self = i
			break
		}
	}
	if self < 0 {
		return fmt.Errorf("service: fleet listen address %q is not in the peer table %v", s.cfg.FleetListen, table)
	}
	s.fleet = &fleetState{alertCounts: make(map[string]int64)}
	mesh, err := fleet.New(fleet.Config{
		Self:           self,
		N:              len(table),
		ListenAddr:     s.cfg.FleetListen,
		AdvertiseURL:   s.cfg.AdvertiseURL,
		Interval:       s.cfg.GossipInterval,
		Floor:          s.cfg.FleetFloor,
		QueueWatermark: s.cfg.ReadyWatermark,
		Secret:         s.cfg.FleetSecret,
		TLS:            s.clusterTLS,
		Source:         s.fleetHealth,
		OnAlert:        s.publishFleetAlert,
	})
	if err != nil {
		return err
	}
	mesh.SetAddrs(table)
	s.fleet.mesh = mesh
	return nil
}

// fleetHealth samples this daemon's own load — the summary gossiped to
// every peer each interval. Called from the mesh's tick goroutine.
func (s *Service) fleetHealth() fleet.Health {
	depth := s.pool.QueueLen()
	cl := s.clusterLinkStats()
	h := fleet.Health{
		QueueDepth:   depth,
		Shedding:     s.cfg.ReadyWatermark > 0 && depth >= s.cfg.ReadyWatermark,
		LiveSessions: s.reg.Len(),
		Redials:      cl.Redials,
		Resends:      cl.Resent,
		DialErrors:   cl.DialErrors,
	}
	if s.st != nil {
		h.StoreKeys = s.st.Metrics().Keys
	}
	if s.phaseHist != nil {
		h.PhaseP99MS = s.phaseHist.Quantile(0.99) * 1000
	}
	return h
}

// publishFleetAlert republishes one rule transition on the event bus so
// SSE consumers and `mediatorctl events tail` see fleet degradation as
// it starts: kind "fleet", state "alert.<rule>" (or "clear.<rule>"),
// id = the subject peer's URL ("fleet" for fleet-wide rules).
func (s *Service) publishFleetAlert(a fleet.Alert) {
	if s.fleet != nil {
		s.fleet.mu.Lock()
		if !a.Cleared {
			s.fleet.alertCounts[a.Rule]++
		}
		s.fleet.mu.Unlock()
	}
	state := "alert." + a.Rule
	if a.Cleared {
		state = "clear." + a.Rule
	}
	id := a.Peer
	if id == "" {
		id = "fleet"
	}
	s.publish(api.KindFleet, id, State(state), api.FleetAlert{
		Rule:    a.Rule,
		Peer:    a.Peer,
		Index:   a.Index,
		Message: a.Message,
		Value:   a.Value,
		Cleared: a.Cleared,
	})
}

// fleetAlertCounts snapshots the per-rule fired-alert tallies.
func (s *Service) fleetAlertCounts() map[string]int64 {
	if s.fleet == nil {
		return nil
	}
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	out := make(map[string]int64, len(s.fleet.alertCounts))
	for k, v := range s.fleet.alertCounts {
		out[k] = v
	}
	return out
}

// FleetView maps the mesh's view to the wire DTO; ok is false when this
// daemon runs without a fleet plane.
func (s *Service) FleetView() (api.FleetView, bool) {
	if s.fleet == nil || s.fleet.mesh == nil {
		return api.FleetView{}, false
	}
	v := s.fleet.mesh.View()
	out := api.FleetView{
		Self:             v.Self,
		Size:             v.N,
		Floor:            v.Floor,
		GossipIntervalMS: v.Interval.Milliseconds(),
		SuspectAfterMS:   v.SuspectAfter.Milliseconds(),
		ExpireAfterMS:    v.ExpireAfter.Milliseconds(),
		Healthy:          v.Healthy,
		Suspect:          v.Suspect,
		Expired:          v.Expired,
		Unknown:          v.Unknown,
		Peers:            make([]api.FleetPeer, len(v.Peers)),
		GenVector:        v.GenVector,
		GossipRounds:     v.Rounds,
		EntriesMerged:    v.EntriesMerged,
		SigRejected:      v.SigRejected,
	}
	for i, p := range v.Peers {
		out.Peers[i] = api.FleetPeer{
			Index:        p.Index,
			Addr:         p.Addr,
			Self:         p.Self,
			State:        api.FleetPeerState(p.State),
			Gen:          p.Gen,
			SilentForMS:  p.SilentForMS,
			QueueDepth:   p.QueueDepth,
			Shedding:     p.Shedding,
			LiveSessions: p.LiveSessions,
			StoreKeys:    p.StoreKeys,
			Redials:      p.Redials,
			Resends:      p.Resends,
			DialErrors:   p.DialErrors,
			PhaseP99MS:   p.PhaseP99MS,
		}
	}
	if len(v.Alerts) > 0 {
		out.Alerts = make([]api.FleetAlert, len(v.Alerts))
		for i, a := range v.Alerts {
			out.Alerts[i] = api.FleetAlert{
				Rule:    a.Rule,
				Peer:    a.Peer,
				Index:   a.Index,
				Message: a.Message,
				Value:   a.Value,
				Cleared: a.Cleared,
			}
		}
	}
	return out, true
}

// observePhases folds a terminal play's phase spans into the rolling
// phase-latency histogram (the p99 gossiped in the health summary).
// Runs once per session on the worker goroutine — zero hot-path cost.
func (s *Service) observePhases(phases []phaseSpan) {
	if s.phaseHist == nil {
		return
	}
	for _, p := range phases {
		s.phaseHist.Observe(float64(p.us) / 1e6)
	}
}

// DropFleetConns severs the gossip mesh's live connections (chaos hook,
// folded into POST /v1/cluster/drop). Returns 0 without a fleet plane.
func (s *Service) DropFleetConns() int {
	if s.fleet == nil || s.fleet.mesh == nil {
		return 0
	}
	return s.fleet.mesh.DropConns()
}
