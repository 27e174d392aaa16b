// Duality: the paper's central claim, measured side by side.
//
// "Accesses to stored objects are user driven, whereas access to live
// objects is object driven. This reversal of active/passive roles of
// users and objects leads to interesting dualities." (Abstract.)
//
// This example generates one stored-media workload (GISMO's original
// mode: a 1,000-clip library) and one live-media workload (the paper's
// model: 2 live feeds), then measures the two dualities on each side:
//
//  1. What is Zipf? Stored: object popularity. Live: client interest.
//  2. What drives transfer length? Stored: the object's size
//     (strong length/size rank correlation). Live: the client's
//     willingness to stick (no structural correlate).
//
// Run with:
//
//	go run ./examples/duality
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	// Stored side: a clip library.
	storedModel := gismo.DefaultStored(3, 2000, 0.15)
	stored, err := gismo.GenerateStored(storedModel, rand.New(rand.NewSource(42)))
	fatal(err)

	// Live side: the reality show.
	liveModel, err := gismo.Scaled(100, 3)
	fatal(err)
	live, err := gismo.GenerateSeeded(liveModel, 42)
	fatal(err)

	// --- Duality 1: what is Zipf? -------------------------------------
	objCounts := make([]int, storedModel.NumObjects)
	for _, r := range stored.Requests {
		objCounts[r.Object]++
	}
	popFit, err := dist.FitZipfCounts(objCounts)
	fatal(err)

	clientCounts := make(map[int]int)
	for _, r := range live.Requests {
		clientCounts[r.Client]++
	}
	cc := make([]int, 0, len(clientCounts))
	for _, c := range clientCounts {
		cc = append(cc, c)
	}
	interestFit, err := dist.FitZipfCounts(cc)
	fatal(err)

	// --- Duality 2: what drives transfer length? -----------------------
	sLen := make([]float64, len(stored.Requests))
	sSize := make([]float64, len(stored.Requests))
	for i, r := range stored.Requests {
		sLen[i] = float64(r.Duration)
		sSize[i] = float64(stored.ObjectSeconds[r.Object])
	}
	storedCorr, err := stats.SpearmanCorrelation(sLen, sSize)
	fatal(err)

	lLen := make([]float64, len(live.Requests))
	lObj := make([]float64, len(live.Requests))
	for i, r := range live.Requests {
		lLen[i] = float64(r.Duration)
		lObj[i] = float64(r.Object)
	}
	liveCorr, err := stats.SpearmanCorrelation(lLen, lObj)
	fatal(err)

	tbl := &report.Table{
		Title:   "The live/stored duality (Veloso et al., Section 1 and 3.5)",
		Headers: []string{"Question", "Stored media (user driven)", "Live media (object driven)"},
	}
	tbl.AddRow("workload",
		fmt.Sprintf("%d clips, %d requests", storedModel.NumObjects, len(stored.Requests)),
		fmt.Sprintf("%d feeds, %d requests", liveModel.NumObjects, len(live.Requests)))
	tbl.AddRow("what follows a Zipf law",
		fmt.Sprintf("OBJECT popularity (alpha %.2f)", popFit.Alpha),
		fmt.Sprintf("CLIENT interest (alpha %.2f)", interestFit.Alpha))
	tbl.AddRow("length vs object structure (Spearman)",
		fmt.Sprintf("%.2f — size-driven", storedCorr),
		fmt.Sprintf("%.2f — stickiness-driven", liveCorr))
	fatal(tbl.Render(os.Stdout))

	fmt.Println()
	fmt.Println("Stored media: users choose among many objects, so objects accumulate")
	fmt.Println("Zipf popularity and lengths inherit object size. Live media inverts both:")
	fmt.Println("two always-on objects choose nothing — the skew moves to the clients,")
	fmt.Println("and transfer length becomes a property of viewer behaviour alone.")
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
