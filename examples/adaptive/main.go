// Adaptive is a miniature version of the paper's Booksim study (Figures
// 7-13): on one small Jellyfish it sweeps offered load under random shift
// traffic and prints, for each routing mechanism, the latency curve and
// the saturation throughput — demonstrating why KSP-adaptive wins.
package main

import (
	"fmt"
	"log"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

func main() {
	params := jellyfish.Params{N: 24, X: 18, Y: 12} // 6 terminals, 12 links per switch
	topo, err := jellyfish.New(params, xrand.New(11))
	if err != nil {
		log.Fatal(err)
	}
	db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 8}, 11, 0)
	pattern := traffic.RandomShift(topo.NumTerminals(), xrand.New(3))
	fmt.Printf("topology %v (%d nodes), traffic %s, selector rEDKSP(8)\n\n",
		params, topo.NumTerminals(), pattern.Name)

	rates := flitsim.Rates(0.1, 1.0, 0.1)
	mechs := append(routing.Mechanisms(), routing.SP())

	table := stats.NewTable("Average packet latency (cycles) vs offered load; '-' = saturated",
		append([]string{"Mechanism"}, rateHeaders(rates)...)...)
	sat := stats.NewTable("Saturation throughput per mechanism", "Mechanism", "Throughput")

	for _, mech := range mechs {
		satRate, runs := flitsim.SaturationThroughput(flitsim.Config{
			Topo:      topo,
			Paths:     db,
			Mechanism: mech,
			Traffic:   traffic.NewFixedSampler(pattern),
			Seed:      99,
		}, rates)
		// The search stops at the first saturated rate, so every rate
		// from there on reads as saturated.
		row := []string{mech.Name()}
		for i := range rates {
			if i < len(runs) && !runs[i].Saturated {
				row = append(row, fmt.Sprintf("%.0f", runs[i].AvgLatency))
			} else {
				row = append(row, "-")
			}
		}
		table.AddRow(row...)
		sat.AddRow(mech.Name(), fmt.Sprintf("%.2f", satRate))
	}
	fmt.Println(table.String())
	fmt.Println(sat.String())
}

func rateHeaders(rates []float64) []string {
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = fmt.Sprintf("%.1f", r)
	}
	return out
}
