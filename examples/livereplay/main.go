// Live replay: end-to-end over real sockets.
//
// This example closes the loop the discrete-event simulator takes in one
// step, but over an actual TCP streaming server: generate one trace hour
// with the paper's model, replay it against the in-process live server
// in compressed time (1 trace hour ≈ 6 wall seconds), decompress the
// server's transfer log back into trace time, and run the
// characterization pipeline on what the *network* actually did.
//
// The server logs at 1-second resolution, so at 600× compression every
// reconstructed instant is quantized to ±600 trace seconds: who watched
// and how many at once survive the round trip, transfer lengths do not
// (`lsmload -check` is the exact validation of the same loop).
//
// Run with:
//
//	go run ./examples/livereplay
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/liveserver"
	"repro/internal/loadgen"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

func main() {
	// One busy trace hour of a small audience.
	model, err := gismo.Scaled(3000, 1)
	fatal(err)
	model.Horizon = 3600
	model.RampUpDays = 0 // the premiere ramp would empty a one-hour trace
	model.BaseArrivalRate = 0.05
	fatal(model.Validate())
	ws, err := gismo.NewStreamSeeded(model, 7, gismo.DefaultShards())
	fatal(err)
	defer ws.Close()

	// In-process live server logging each completed transfer the way
	// lsmserve does.
	var mu sync.Mutex
	var logged []*wmslog.Entry
	scfg := liveserver.DefaultServerConfig()
	scfg.FrameBytes = 512
	scfg.FrameInterval = 10 * time.Millisecond
	scfg.MaxConns = 128
	scfg.Sink = func(r liveserver.TransferRecord) {
		e := liveserver.RecordEntry(r)
		mu.Lock()
		logged = append(logged, e)
		mu.Unlock()
	}
	srv, err := liveserver.Serve("127.0.0.1:0", scfg)
	fatal(err)
	defer srv.Close()
	fmt.Printf("live server on %s\n", srv.Addr())

	cfg := loadgen.DefaultConfig()
	cfg.Compression = 600
	cfg.MaxConns = 64
	cfg.MinWatch = 25 * time.Millisecond
	res, err := loadgen.Replay(srv.Addr(), ws, cfg)
	fatal(err)
	fmt.Println(res)

	// Decompress the server's log back into trace time and characterize.
	mu.Lock()
	entries, err := loadgen.DecompressEntries(logged, res.Begin, res.Origin, res.Compression, wmslog.TraceEpoch)
	mu.Unlock()
	fatal(err)
	tr, err := trace.FromEntries(entries, wmslog.TraceEpoch, model.Horizon)
	fatal(err)
	clean, report := tr.Sanitize()
	fmt.Println(report)

	char, err := core.Characterize(clean, 1500, []int64{500, 1500, 3000}, 1)
	fatal(err)
	fmt.Printf("\ncharacterization of the wire trace:\n")
	fmt.Printf("  %d clients, %d sessions, %d transfers (%d offered)\n",
		char.Basic.Users, char.Basic.Sessions, char.Basic.Transfers, res.Attempted)
	fmt.Printf("  peak concurrent transfers: %d (server completed %d in total)\n",
		char.Transfer.Concurrency.Peak, srv.ServedTransfers())
	fmt.Println("\nThe same pipeline that characterizes month-scale simulated traces")
	fmt.Println("accepts logs produced by real network transfers.")
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
