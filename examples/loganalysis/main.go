// Log analysis: the downstream-user path.
//
// A service operator with a directory of Windows-Media-Server-style logs
// runs exactly this: parse (tolerantly), sanitize (Section 2.4),
// sessionize at T_o = 1,500 s (Section 2.2/Figure 9), characterize all
// three layers, and print the operational summary. This example first
// fabricates a week of logs on disk — including deliberately corrupt
// lines and multi-harvest "spanning" entries — so the robustness
// machinery has something to chew on.
//
// Run with:
//
//	go run ./examples/loganalysis
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

func main() {
	dir, err := os.MkdirTemp("", "lsm-logs-*")
	fatal(err)
	defer os.RemoveAll(dir)

	// --- 1. Fabricate a week of logs, imperfections included. ---------
	// The generator's stream is served straight into daily log files,
	// as lsmgen writes them: no workload or entry is held.
	model, err := gismo.Scaled(400, 7)
	fatal(err)
	ws, err := gismo.NewStreamSeeded(model, 99, gismo.DefaultShards())
	fatal(err)
	defer ws.Close()
	dw, err := wmslog.NewDailyWriter(dir)
	fatal(err)
	scfg := simulate.DefaultConfig()
	scfg.SpanningPerMillion = 20000 // 2%: visible multi-harvest artifacts
	res, err := simulate.RunStream(ws, ws.Population(), model.Horizon, scfg, 99, simulate.StreamSinks{Line: dw.WriteLine})
	if cerr := dw.Close(); err == nil {
		err = cerr
	}
	fatal(err)
	files := dw.Files()

	// Vandalize one file with garbage lines, as real logs deserve.
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0)
	fatal(err)
	_, err = f.WriteString("corrupted line that is not a log entry\n2002-13-45 99:99:99 nope\n")
	fatal(err)
	fatal(f.Close())
	fmt.Printf("wrote %d daily log files (with %d spanning entries and 2 garbage lines)\n",
		len(files), res.Injected)

	// --- 2. The operator's pipeline. -----------------------------------
	// One call from bytes to characterization: a tolerant parse (a file
	// per core, no entry ever materialized) and the sanitize, each row
	// observed as the files merge — no trace is built.
	char, _, err := core.ObserveLogs(dir, int(model.Horizon/86400), 1500, &core.FigureOptions{Seed: 1}, os.Stdout)
	fatal(err)
	fmt.Printf("server health: %.2f%% of active time below 10%% CPU\n", char.Figures.Audit.TimeBelowFrac*100)

	fmt.Println("\noperational summary:")
	fmt.Printf("  audience:        %d distinct players from %d ASes in %d countries\n",
		char.Basic.Users, char.Basic.ASes, len(char.Divers.CountryShare))
	fmt.Printf("  volume:          %d sessions, %d transfers, %.1f GB served\n",
		char.Basic.Sessions, char.Basic.Transfers, float64(char.Basic.TotalBytes)/1e9)
	fmt.Printf("  peak audience:   %d concurrent clients\n", char.Client.Concurrency.Peak)
	fmt.Printf("  engagement:      median session %v s, %s\n",
		char.Session.OnMarginal().Quantile(0.5), char.Session.PerSessionFit)
	fmt.Printf("  access quality:  %.1f%% of transfers congestion-bound\n",
		char.Figures.Transfer.CongestionFrac*100)
	if acf := char.Client.Concurrency.ACF(); len(acf) > 1440 {
		fmt.Printf("  rhythm:          daily autocorrelation %.2f — schedule capacity diurnally\n", acf[1440])
	}
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
