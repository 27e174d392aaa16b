package layers

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// Fixture is the shared input of the stage-isolated probes: one
// generated workload, drained and served once, held in memory so every
// probe times its own layer and nothing upstream of it. The probes run
// in pipeline order and each leaves its product for the next.
type Fixture struct {
	Sizes Sizes
	Seed  int64
	Dir   string // scratch directory for rendered logs

	Model   gismo.Model
	Pop     *gismo.Population
	Events  []workload.Event
	Entries []wmslog.Entry // served log, held by value (sink entries are pooled)

	Workload *gismo.Workload        // gismo probe → simulate probe
	TextDir  string                 // wmslog probe → pipeline replicas
	Parsed   []*wmslog.Entry        // wmslog probe → trace probe
	Trace    *trace.Trace           // trace probe
	Clean    *trace.Trace           // trace probe → sessions, analyze, core
	Set      *sessions.Set          // sessions probe → analyze, core
	Char     *core.Characterization // core probe → calibrate
	Live     []LiveSession          // liveserver probe → loadgen: one probe round of sessions
}

// NewFixture generates and serves the probe workload.
func NewFixture(sizes Sizes, seed int64, dir string) (*Fixture, error) {
	m, err := gismo.Scaled(sizes.ProbeScale, sizes.Days)
	if err != nil {
		return nil, err
	}
	ws, err := gismo.NewStreamSeeded(m, seed, 1)
	if err != nil {
		return nil, err
	}
	fx := &Fixture{Sizes: sizes, Seed: seed, Dir: dir, Model: m, Pop: ws.Population(), TextDir: filepath.Join(dir, "text")}
	fx.Events = workload.Drain(ws, 0)
	ws.Close()
	_, err = simulate.RunStream(workload.NewSliceStream(fx.Events), fx.Pop, m.Horizon, simulate.DefaultConfig(), uint64(seed), simulate.StreamSinks{
		Entry: func(e *wmslog.Entry) error {
			fx.Entries = append(fx.Entries, *e)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if len(fx.Entries) == 0 {
		return nil, fmt.Errorf("probe fixture: scale %g over %d days served nothing", sizes.ProbeScale, sizes.Days)
	}
	return fx, nil
}

// perItem divides a run's cost by the number of items it handled.
func perItem(total float64, items int) float64 {
	return total / float64(max(items, 1))
}

// Probe is one layer's probe function.
type Probe struct {
	Layer string
	Run   func(*Fixture, Metrics) error
}

// Probes lists the layer probes in pipeline order; each may read what
// the ones before it left in the fixture. lsmgen is the built
// generator binary the pipeline probe runs.
func Probes(lsmgen string) []Probe {
	return []Probe{
		{"gismo", ProbeGismo},
		{"workload", ProbeWorkload},
		{"simulate", ProbeSimulate},
		{"ring", ProbeRing},
		{"wmslog", ProbeWmslog},
		{"trace", ProbeTrace},
		{"sessions", ProbeSessions},
		{"analyze", ProbeAnalyze},
		{"core", ProbeCore},
		{"calibrate", ProbeCalibrate},
		{"liveserver", ProbeLiveserver},
		{"loadgen", ProbeLoadgen},
		{"cluster", ProbeCluster},
		{"pipeline", func(fx *Fixture, m Metrics) error { return ProbePipeline(fx, lsmgen, m) }},
	}
}
