package core

import (
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// FigureFiveCost is the modelled Fig-5 switch-cost function: every
// command pays the post-drain re-init stall, and leaving an idling
// elevator (anticipatory mid-anticipation, CFQ in slice idle) additionally
// pays the armed idle window that must expire before the drain can
// complete. The cost therefore depends on the pair being LEFT, which is
// exactly the paper's non-commutativity: cost(AS→noop) > cost(noop→AS).
// The two levels drain concurrently, so the idle penalty is the slower of
// the VMM and VM sides.
func FigureFiveCost(reinit sim.Duration, p iosched.Params) func(from, to iosched.Pair) sim.Duration {
	idle := func(name string) sim.Duration {
		switch name {
		case iosched.Anticipatory:
			return p.AnticExpire
		case iosched.CFQ:
			return p.SliceIdle
		default:
			return 0
		}
	}
	return func(from, to iosched.Pair) sim.Duration {
		if from == to {
			return 0
		}
		drain := idle(from.VMM)
		if g := idle(from.VM); g > drain {
			drain = g
		}
		return reinit + drain
	}
}
