package analyze

import (
	"adaptmr/internal/cluster"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
)

// BenchFromOnline condenses an online-controlled run of job on cfg into
// the committed gate summary: res is the job's result, startPair the
// boot pair's code, switches the issued switch commands, stall their
// switch stall and events the engine's event count. The labels come
// from the inputs as Run's do, and the workload label is namespaced
// ("online:<job name>") so an online bench can never be compared against
// a static-pair baseline by accident; Pair records the boot pair (what
// the run bootstrapped from — the controller's switching is gated
// separately through the Switches count and the makespan itself).
func BenchFromOnline(cfg cluster.Config, job mapred.Config, res mapred.Result, startPair string,
	switches int, stall sim.Duration, events uint64) Bench {
	return Bench{
		Schema:   benchSchema,
		Workload: "online:" + job.Name,
		Hosts:    cfg.Hosts,
		VMs:      cfg.VMsPerHost,
		InputMB:  job.InputPerVM >> 20,
		Seed:     cfg.Seed,
		Pair:     startPair,

		MakespanS: round6(res.Duration.Seconds()),
		PhaseS: map[string]float64{
			"map":     round6(res.MapsDoneAt.Sub(res.Start).Seconds()),
			"shuffle": round6(res.ShuffleDoneAt.Sub(res.MapsDoneAt).Seconds()),
			"reduce":  round6(res.Done.Sub(res.ShuffleDoneAt).Seconds()),
		},
		BlameS:       map[string]float64{},
		SwitchStallS: round6(stall.Seconds()),
		SimEvents:    int64(events),
		Switches:     switches,
	}
}
