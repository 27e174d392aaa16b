// The shards × GOMAXPROCS parity grid: the generation shard count and
// the scheduler's CPU count are pure throughput knobs — the served WMS
// log must be byte-identical (same md5) at every combination. This is
// the acceptance test for the generate → serve pipeline.
package repro

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// gridModel is the 110k-transfer bench fixture (benchStreamModel's
// shape, reachable from a *testing.T).
func gridModel(t *testing.T) gismo.Model {
	t.Helper()
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.BaseArrivalRate *= 60
	return m
}

// The log md5 and run summary the sequential serve loop
// (referenceRunStream in internal/simulate) produces for gridModel at
// benchSeed. Pinned, so the grid is checked against the reference's
// bytes rather than against one of its own cells.
const gridLogMD5 = "e7754bdb787e60b21aba52327970b9d6"

var gridResult = simulate.StreamResult{Transfers: 110341, PeakConcurrency: 307, Injected: 4, TotalBytes: 169518481517}

func TestStreamShardLaneGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full shards×GOMAXPROCS md5 parity grid")
	}
	m := gridModel(t)
	cfg := simulate.DefaultConfig()
	// Each cell runs through both log sinks: the Line sink lsmgen writes
	// text through, and the Entry sink the binary format and every
	// collector take.
	sinks := map[string]func(lw *wmslog.Writer) simulate.StreamSinks{
		"line": func(lw *wmslog.Writer) simulate.StreamSinks {
			return simulate.StreamSinks{Line: func(_ time.Time, line []byte) error { return lw.WriteLine(line) }}
		},
		"entry": func(lw *wmslog.Writer) simulate.StreamSinks { return simulate.StreamSinks{Entry: lw.Write} },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4, 8} {
			for sink, sinksOf := range sinks {
				key := fmt.Sprintf("shards=%d/GOMAXPROCS=%d/%s", shards, procs, sink)
				ws, err := gismo.NewStream(m, benchSeed, shards)
				if err != nil {
					t.Fatal(err)
				}
				h := md5.New()
				lw := wmslog.NewWriter(h)
				res, err := simulate.RunStream(ws, ws.Population(), m.Horizon, cfg, benchSeed, sinksOf(lw))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if err := lw.Flush(); err != nil {
					t.Fatal(err)
				}
				if sum := hex.EncodeToString(h.Sum(nil)); sum != gridLogMD5 {
					t.Errorf("%s: served log md5 %s, reference %s", key, sum, gridLogMD5)
				}
				if *res != gridResult {
					t.Errorf("%s: result %+v, reference %+v", key, *res, gridResult)
				}
			}
		}
	}
}
