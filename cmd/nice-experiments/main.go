// Command nice-experiments regenerates every table and figure of the
// paper's evaluation (§7–§8):
//
//	nice-experiments -table1 -maxpings 4   Table 1: NICE-MC vs NO-SWITCH-REDUCTION
//	nice-experiments -figure6 -maxpings 4  Figure 6: NO-DELAY / FLOW-IR reductions
//	nice-experiments -table2               Table 2: per-bug, per-strategy hunts
//	nice-experiments -baseline             §7: NICE-MC vs the fine-grained baseline
//	nice-experiments -all
//	nice-experiments -all -workers 8       searches run on the parallel engine
//
// Absolute numbers differ from the paper's (Go vs Python, simplified
// substrate); the shapes under comparison are the reproduction targets.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/scenarios"
)

// workers selects the engine for every search the harness runs:
// 1 = the sequential reference checker, otherwise the parallel
// work-stealing pool (0 = all CPUs).
var workers = flag.Int("workers", 1, "parallel search workers (0 = all CPUs, 1 = sequential checker)")

// runSearch executes one search through the unified nice.Run entry
// point (workers==1 delegates to the sequential checker inside the
// parallel engine).
func runSearch(cfg *nice.Config) *nice.Report {
	return nice.Run(context.Background(), cfg, nice.WithWorkers(*workers))
}

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the Table 1 comparison")
		figure6  = flag.Bool("figure6", false, "run the Figure 6 strategy reductions")
		table2   = flag.Bool("table2", false, "run the Table 2 bug hunts")
		baseline = flag.Bool("baseline", false, "run the off-the-shelf-checker baseline comparison")
		all      = flag.Bool("all", false, "run everything")
		maxPings = flag.Int("maxpings", 4, "largest ping count for table1/figure6")
	)
	flag.Parse()

	ran := false
	if *table1 || *all {
		runTable1(*maxPings)
		ran = true
	}
	if *figure6 || *all {
		runFigure6(*maxPings)
		ran = true
	}
	if *baseline || *all {
		runBaseline(min(*maxPings, 3))
		ran = true
	}
	if *table2 || *all {
		runTable2()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runTable1(maxPings int) {
	fmt.Println("Table 1: exhaustive search, NICE-MC vs NO-SWITCH-REDUCTION")
	fmt.Println("(layer-2 ping workload on A—s1—s2—B, MAC-learning controller, SE off)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tTransitions\tUnique states\tCPU time\tTransitions\tUnique states\tCPU time\trho")
	fmt.Fprintln(w, "\t— NICE-MC —\t\t\t— NO-SWITCH-REDUCTION —\t\t\t")
	for pings := 1; pings <= maxPings; pings++ {
		nice := runSearch(scenarios.PingPong(pings))
		cfg := scenarios.PingPong(pings)
		cfg.NoSwitchReduction = true
		nr := runSearch(cfg)
		rho := 1 - float64(nice.UniqueStates)/float64(nr.UniqueStates)
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%d\t%d\t%v\t%.2f\n",
			pings, nice.Transitions, nice.UniqueStates, round(nice.Elapsed),
			nr.Transitions, nr.UniqueStates, round(nr.Elapsed), rho)
	}
	w.Flush()
	fmt.Println()
}

func runFigure6(maxPings int) {
	fmt.Println("Figure 6: relative state-space reduction of the search strategies vs NICE-MC")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tNO-DELAY trans.\tNO-DELAY CPU\tFLOW-IR trans.\tFLOW-IR CPU")
	for pings := 2; pings <= maxPings; pings++ {
		base := runSearch(scenarios.PingPong(pings))

		nd := scenarios.PingPong(pings)
		nd.NoDelay = true
		noDelay := runSearch(nd)

		fir := scenarios.PingPong(pings)
		fir.FlowGroupKey = scenarios.PingGroup
		flowIR := runSearch(fir)

		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\n", pings,
			reduction(base.Transitions, noDelay.Transitions),
			reductionF(base.Elapsed, noDelay.Elapsed),
			reduction(base.Transitions, flowIR.Transitions),
			reductionF(base.Elapsed, flowIR.Elapsed))
	}
	w.Flush()
	fmt.Println("(reduction = 1 - strategy/NICE-MC; higher is better)")
	fmt.Println()
}

func runBaseline(maxPings int) {
	fmt.Println("§7 comparison: NICE-MC vs a fine-grained off-the-shelf-style checker")
	fmt.Println("(micro-step packet processing, raw switch state — the paper's SPIN/JPF stand-in)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tNICE-MC trans.\tNICE-MC CPU\tBaseline trans.\tBaseline CPU\tSpeed-up")
	for pings := 1; pings <= maxPings; pings++ {
		nice := runSearch(scenarios.PingPong(pings))
		fine := runSearch(scenarios.BaselineFine(pings))
		speedup := float64(fine.Elapsed) / float64(nice.Elapsed)
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%v\t%.1fx\n",
			pings, nice.Transitions, round(nice.Elapsed),
			fine.Transitions, round(fine.Elapsed), speedup)
	}
	w.Flush()
	fmt.Println()
}

func runTable2() {
	fmt.Println("Table 2: transitions / time to the first violation per bug and strategy")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BUG\tPKT-SEQ only\tNO-DELAY\tFLOW-IR\tUNUSUAL\tProperty")
	for _, sc := range scenarios.Table2() {
		fmt.Fprintf(w, "%s", sc.Bug)
		for _, s := range scenarios.Strategies {
			report := runSearch(sc.Apply(sc.Config(0), s))
			if v := report.FirstViolation(); v != nil {
				fmt.Fprintf(w, "\t%d / %v", report.Transitions, round(report.Elapsed))
			} else {
				fmt.Fprintf(w, "\tMissed")
			}
		}
		fmt.Fprintf(w, "\t%s\n", sc.ExpectedProperty)
	}
	w.Flush()
	fmt.Println()
}

func reduction(base, strat int64) float64 {
	return 1 - float64(strat)/float64(base)
}

func reductionF(base, strat time.Duration) float64 {
	return 1 - float64(strat)/float64(base)
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
