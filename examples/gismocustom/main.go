// GISMO customization: every knob of the Table 2 generative model, turned.
//
// The paper's Section 6 stresses that the generative processes "can be
// easily adjusted to specific distributions associated with other
// applications". This example builds three custom models —
//
//   - "zappers": viewers who hop between feeds constantly (heavier
//     transfers-per-session Zipf, short transfers),
//   - "lurkers": long-stay passive viewers (longer transfer lengths,
//     few transfers per session),
//   - "loyal fans": a much more skewed client interest profile,
//
// generates each, re-characterizes it, and verifies the knob moved the
// measured statistic in the expected direction.
//
// Run with:
//
//	go run ./examples/gismocustom
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/report"
	"repro/internal/simulate"
)

func main() {
	base, err := gismo.Scaled(150, 3)
	fatal(err)

	zappers := base
	zappers.TransfersPerSession.Alpha = 1.8 // heavier: more multi-transfer sessions
	zappers.TransferLength.Mu = 3.2         // median ~25 s: constant feed-hopping

	lurkers := base
	lurkers.TransfersPerSession.Alpha = 4.0 // almost always a single transfer
	lurkers.TransferLength.Mu = 5.5         // median ~245 s: stay on one feed

	fans := base
	fans.Interest.Alpha = 1.2 // a hard core of heavy repeat visitors

	tbl := &report.Table{
		Title: "Custom GISMO models, re-characterized",
		Headers: []string{
			"Model", "Sessions", "Transfers", "Xfers/session",
			"Median xfer (s)", "Interest alpha",
		},
	}
	type row struct {
		name  string
		model gismo.Model
		seed  int64
	}
	rows := []row{
		{"baseline (paper)", base, 11},
		{"zappers", zappers, 12},
		{"lurkers", lurkers, 13},
		{"loyal fans", fans, 14},
	}
	measured := map[string]*core.Characterization{}
	for _, r := range rows {
		char, sessions, transfers, err := characterize(r.model, r.seed)
		fatal(err)
		measured[r.name] = char
		tbl.AddRow(
			r.name,
			fmt.Sprintf("%d", sessions),
			fmt.Sprintf("%d", transfers),
			fmt.Sprintf("%.2f", float64(transfers)/float64(sessions)),
			fmt.Sprintf("%.0f", char.Transfer.LengthFit.Median()),
			fmt.Sprintf("%.3f", char.Client.InterestSessions.Alpha),
		)
	}
	fatal(tbl.Render(os.Stdout))

	fmt.Println()
	check := func(name string, ok bool) {
		status := "ok"
		if !ok {
			status = "UNEXPECTED"
		}
		fmt.Printf("  [%s] %s\n", status, name)
	}
	check("zappers run more transfers per session than baseline",
		meanPerSession(measured["zappers"]) > meanPerSession(measured["baseline (paper)"]))
	check("zappers' transfers are shorter",
		measured["zappers"].Transfer.LengthFit.Median() < measured["baseline (paper)"].Transfer.LengthFit.Median())
	check("lurkers' transfers are longer",
		measured["lurkers"].Transfer.LengthFit.Median() > measured["baseline (paper)"].Transfer.LengthFit.Median())
	check("loyal fans concentrate sessions on fewer clients",
		measured["loyal fans"].Client.InterestSessions.Alpha > measured["baseline (paper)"].Client.InterestSessions.Alpha)
}

func characterize(m gismo.Model, seed int64) (*core.Characterization, int, int, error) {
	cfg := core.Config{
		Model:  m,
		Server: simulate.DefaultConfig(),
		Seed:   seed,
	}
	rep, err := core.Run(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	return rep.Char, rep.Char.Basic.Sessions, rep.Char.Basic.Transfers, nil
}

func meanPerSession(c *core.Characterization) float64 {
	return float64(c.Basic.Transfers) / float64(c.Basic.Sessions)
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
