// Package core implements the paper's primary contribution: compiling a
// mediator strategy into an asynchronous cheap-talk strategy profile that
// preserves (k,t)-robust equilibrium, per the four upper-bound theorems.
//
//	Theorem 4.1  n > 4k+4t   exact implementation, no punishment needed,
//	                         utility-independent (works for every utility
//	                         variant); AH or default-move approach.
//	Theorem 4.2  n > 3k+3t   epsilon-implementation, epsilon-(k,t)-robust.
//	Theorem 4.4  n > 3k+4t   exact implementation given a (k+t)-punishment
//	                         strategy; AH approach (punishment in wills).
//	Theorem 4.5  n > 2k+3t   epsilon-implementation given a (2k+2t)-
//	                         punishment strategy; AH approach.
//
// The compiled player process evaluates the mediator's arithmetic circuit
// with the asynchronous MPC engine (package mpc). The variants differ in
// the engine's thresholds and in what the player writes in its will:
//
//   - 4.1/4.2 treat the whole potential coalition as faulty: fault budget
//     and sharing degree are both k+t.
//   - 4.4/4.5 put the punishment strategy in every honest player's will
//     and budget faults at t only (rational players are deterred from
//     stalling: a deadlock triggers the punishment, which by definition
//     makes them worse off), while the sharing degree stays k+t so the
//     coalition learns nothing early. t-cotermination of the talk makes
//     the punishment effective: either all honest players decide, or none
//     do and all their wills fire.
package core

import (
	"fmt"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mpc"
	"asyncmediator/internal/proto"
)

// Variant selects the theorem whose protocol to run.
type Variant int

// The four upper-bound theorems.
const (
	Exact41 Variant = iota + 1
	Epsilon42
	Punish44
	Punish45
)

func (v Variant) String() string {
	switch v {
	case Exact41:
		return "Theorem4.1"
	case Epsilon42:
		return "Theorem4.2"
	case Punish44:
		return "Theorem4.4"
	case Punish45:
		return "Theorem4.5"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Bound returns the minimal n for which the variant's theorem applies with
// the given k and t (the strict bound plus one).
func (v Variant) Bound(k, t int) int {
	switch v {
	case Exact41:
		return 4*k + 4*t + 1
	case Epsilon42:
		return 3*k + 3*t + 1
	case Punish44:
		return 3*k + 4*t + 1
	case Punish45:
		return 2*k + 3*t + 1
	default:
		return 1 << 30
	}
}

// boundConditions spells out each theorem's resilience bound for error
// messages; Bound is the one that is checked.
var boundConditions = map[Variant]string{
	Exact41:   "4.1 needs n > 4k+4t",
	Epsilon42: "4.2 needs n > 3k+3t",
	Punish44:  "4.4 needs n > 3k+4t",
	Punish45:  "4.5 needs n > 2k+3t",
}

// Params configures the cheap-talk compilation.
type Params struct {
	// Game is the underlying Bayesian game.
	Game *game.Game
	// Circuit is the mediator's decision function (input slot 0 of player
	// p = p's type; one output per player).
	Circuit *circuit.Circuit
	// K and T bound the rational coalition and the unknown-utility
	// ("malicious") players, respectively.
	K, T int
	// Variant selects the protocol.
	Variant Variant
	// Approach selects wills (AH) vs default moves for deadlocked players.
	// Theorems 4.4/4.5 require the AH approach (or a default move that IS
	// the punishment; see the paper's Section 1 discussion).
	Approach game.Approach
	// Punishment is the punishment strategy profile (per player), required
	// by Punish44/Punish45.
	Punishment game.Profile
	// Epsilon is the error budget of the epsilon-variants (analysis
	// parameter; must be positive for Epsilon42/Punish45).
	Epsilon float64
	// CoinSeed seeds the shared coin of the agreement substrate.
	CoinSeed int64
}

// Validate checks the theorem preconditions.
func (p *Params) Validate() error {
	if p.Game == nil || p.Circuit == nil {
		return fmt.Errorf("core: nil game or circuit")
	}
	if err := p.Game.Validate(); err != nil {
		return err
	}
	if p.K < 0 || p.T < 0 || p.K+p.T == 0 {
		return fmt.Errorf("core: need k+t >= 1 (k=%d t=%d)", p.K, p.T)
	}
	n := p.Game.N
	cond, ok := boundConditions[p.Variant]
	if !ok {
		return fmt.Errorf("core: unknown variant %v", p.Variant)
	}
	if n < p.Variant.Bound(p.K, p.T) {
		return fmt.Errorf("core: Theorem %s (n=%d k=%d t=%d)", cond, n, p.K, p.T)
	}
	switch p.Variant {
	case Epsilon42:
		if p.Epsilon <= 0 {
			return fmt.Errorf("core: Theorem 4.2 needs epsilon > 0")
		}
	case Punish44:
		if len(p.Punishment) != n {
			return fmt.Errorf("core: Theorem 4.4 needs a punishment profile of length %d", n)
		}
		if p.Approach != game.ApproachAH {
			return fmt.Errorf("core: Theorem 4.4 needs the AH approach (punishment lives in wills)")
		}
	case Punish45:
		if len(p.Punishment) != n {
			return fmt.Errorf("core: Theorem 4.5 needs a punishment profile of length %d", n)
		}
		if p.Approach != game.ApproachAH {
			return fmt.Errorf("core: Theorem 4.5 needs the AH approach")
		}
		if p.Epsilon <= 0 {
			return fmt.Errorf("core: Theorem 4.5 needs epsilon > 0")
		}
	}
	if p.Circuit.N() != n {
		return fmt.Errorf("core: circuit built for %d players, game has %d", p.Circuit.N(), n)
	}
	return nil
}

// thresholds returns the MPC fault budget and sharing degree per variant.
func (p *Params) thresholds() (faults, deg int) {
	switch p.Variant {
	case Exact41, Epsilon42:
		return p.K + p.T, p.K + p.T
	default: // Punish44, Punish45
		return p.T, p.K + p.T
	}
}

// Player is one compiled cheap-talk player: a proto.Host wrapping the MPC
// engine plus the game-layer glue (wills, decide, halt).
type Player struct {
	host *proto.Host
}

var _ async.Process = (*Player)(nil)

// Start implements async.Process.
func (p *Player) Start(env *async.Env) { p.host.Start(env) }

// Deliver implements async.Process.
func (p *Player) Deliver(env *async.Env, msg async.Message) { p.host.Deliver(env, msg) }

// NewPlayer compiles the cheap-talk process for player i with type tp.
func NewPlayer(params Params, i int, tp game.Type) (*Player, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := params.Game
	if i < 0 || i >= g.N {
		return nil, fmt.Errorf("core: player %d out of range", i)
	}
	faults, deg := params.thresholds()
	h := proto.NewHost()

	// Find my single recommended-action output.
	myOutput := -1
	for oi, out := range params.Circuit.Outputs() {
		if out.Player == i {
			if myOutput >= 0 {
				return nil, fmt.Errorf("core: player %d has multiple circuit outputs", i)
			}
			myOutput = oi
		}
	}
	if myOutput < 0 {
		return nil, fmt.Errorf("core: player %d has no circuit output", i)
	}
	mo := myOutput

	eng, err := mpc.New(mpc.Config{
		N:       g.N,
		T:       faults,
		Deg:     deg,
		Circuit: params.Circuit,
		Coin:    ba.SharedCoin{Seed: params.CoinSeed},
		Inputs:  []field.Element{game.TypeToField(tp)},
		OnOutput: func(ctx *proto.Ctx, outputs map[int]field.Element) {
			v, ok := outputs[mo]
			if !ok {
				return
			}
			// Canonical form's endgame: decide the recommended action and
			// halt. Garbage outputs decode to NoMove and the game layer
			// resolves them like any other non-move.
			env := ctx.Env()
			env.Decide(g.ActionFromField(i, v))
			env.Halt()
		},
	})
	if err != nil {
		return nil, err
	}
	if err := h.Register("ct", eng); err != nil {
		return nil, err
	}

	// Register the will before any message is exchanged, so a deadlock at
	// ANY point of the talk resolves correctly.
	h.OnStart(func(env *async.Env) {
		switch params.Variant {
		case Punish44, Punish45:
			env.SetWill(params.Punishment[i])
		default:
			if params.Approach == game.ApproachAH && g.Default != nil {
				env.SetWill(g.Default(i, tp))
			}
		}
	})
	return &Player{host: h}, nil
}
