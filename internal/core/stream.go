package core

import (
	"fmt"

	"repro/internal/analyze"
	"repro/internal/gismo"
	"repro/internal/simulate"
)

// StreamReport is the result of a streamed end-to-end run: the same
// generate → serve → measure loop as Run, but riding the sharded event
// stream in O(active sessions) memory, with the measurement layer's
// online estimators standing in for the batch characterization.
type StreamReport struct {
	Config Config
	// Shards is the generator shard count used.
	Shards int
	// Sessions is the number of generated sessions.
	Sessions int
	// Served summarizes the serving pass.
	Served simulate.StreamResult
	// Online is the single-pass measurement snapshot.
	Online analyze.OnlineSnapshot
}

// RunStreamed executes the streaming pipeline: sharded generation,
// serving (one serve goroutine beside the shards), online
// measurement — one pass, no materialized workload, trace or log
// slice. For equal seeds it serves the exact request sequence Run
// serves (the stream is shard-count invariant, Run's generator is a
// drained stream, and the simulator's draws are a pure function of the
// seed and the event identity), so its exact quantities — transfer
// count, bytes, peak concurrency — match Run's, while the sketched
// ones (distinct counts, quantiles) carry the error bounds documented
// on analyze.OnlineLayer.
func RunStreamed(cfg Config, shards int) (*StreamReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, err := gismo.NewStreamSeeded(cfg.Model, cfg.Seed, shards)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	defer ws.Close()

	online, err := analyze.NewOnlineLayer(cfg.Model.Horizon)
	if err != nil {
		return nil, err
	}
	res, err := simulate.RunStream(ws, ws.Population(), cfg.Model.Horizon, cfg.Server, uint64(cfg.Seed), simulate.StreamSinks{
		Transfer: online.Add,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return &StreamReport{
		Config:   cfg,
		Shards:   shards,
		Sessions: ws.Sessions(),
		Served:   *res,
		Online:   online.Snapshot(),
	}, nil
}
