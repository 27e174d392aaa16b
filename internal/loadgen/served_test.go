package loadgen

import (
	"path/filepath"
	"testing"

	"repro/internal/wmslog"
	"repro/internal/workload"
)

// TestReadServedRealization: a fleet's node logs, in mixed formats and
// named in any order, digest as the one log of a single node that
// served the same transfers, and a lost transfer changes the digest.
func TestReadServedRealization(t *testing.T) {
	dir := t.TempDir()
	var all []*wmslog.Entry
	var parts [3][]*wmslog.Entry
	for s := 0; s < 40; s++ {
		for q := 0; q < 3; q++ {
			e := servedEntry(workload.Event{Session: s, Seq: q, Start: int64(7 * s), Duration: 5}, s%5, 1)
			parts[len(all)*7%3] = append(parts[len(all)*7%3], e)
			all = append(all, e)
		}
	}
	var nodes []string
	for i, p := range parts {
		nodes = append(nodes, writeServedLog(t, filepath.Join(dir, "node"+string(rune('1'+i))+".log"), p, byte(i)))
	}
	single := writeServedLog(t, filepath.Join(dir, "single.log"), all, 0)
	lossy := writeServedLog(t, filepath.Join(dir, "lossy.log"), all[1:], 0)
	digest := func(paths ...string) string {
		t.Helper()
		s, _, err := ReadServed(paths, fuzzBegin, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Realization()
	}
	fleet := digest(nodes...)
	if got := digest(nodes[2], nodes[0], nodes[1]); got != fleet {
		t.Fatalf("node logs named in another order digest %s, want %s", got, fleet)
	}
	if got := digest(single); got != fleet {
		t.Fatalf("single-node realization %s, fleet %s", got, fleet)
	}
	if digest(lossy) == fleet {
		t.Fatal("a lost transfer is not reflected in the realization digest")
	}
}
