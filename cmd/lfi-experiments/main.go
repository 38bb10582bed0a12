// Command lfi-experiments regenerates the paper's evaluation (§7):
// every table, Figure 3, the DoS study, and the analyzer-efficiency
// measurement.
//
// Usage:
//
//	lfi-experiments                  # run everything
//	lfi-experiments -table 2        # one table (1..6)
//	lfi-experiments -figure3        # the PBFT degradation series
//	lfi-experiments -dos            # the §7.3 DoS study
//	lfi-experiments -explorer       # coverage-guided explorer vs stock campaigns
//	lfi-experiments -quick          # smaller run counts everywhere
package main

import (
	"flag"
	"fmt"
	"os"

	"lfi/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "run a single table (1..6); 0 = as selected by other flags")
	fig3 := flag.Bool("figure3", false, "run the Figure 3 series")
	dos := flag.Bool("dos", false, "run the DoS study")
	eff := flag.Bool("efficiency", false, "run the analyzer-efficiency measurement")
	explorer := flag.Bool("explorer", false, "run the coverage-guided explorer comparison")
	quick := flag.Bool("quick", false, "reduced run counts (for smoke testing)")
	flag.Parse()

	all := *table == 0 && !*fig3 && !*dos && !*eff && !*explorer

	runs := 100
	t5req := 1000
	f3ops, f3trials := 15, 7
	if *quick {
		runs, t5req, f3ops, f3trials = 25, 200, 8, 2
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lfi-experiments:", err)
		os.Exit(1)
	}

	if all || *table == 1 {
		res, err := experiments.Table1(*quick)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *table == 2 {
		res, err := experiments.Table2(runs)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *table == 3 {
		res, err := experiments.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *table == 4 {
		fmt.Println(experiments.Table4())
	}
	if all || *table == 5 {
		res, err := experiments.Table5(t5req)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
		fmt.Printf("(max overhead %.1f%%)\n\n", res.MaxOverheadPct())
	}
	if all || *table == 6 {
		res, err := experiments.Table6(0)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
		fmt.Printf("(max overhead %.1f%%)\n\n", res.MaxOverheadPct())
	}
	if all || *fig3 {
		res, err := experiments.Figure3(f3ops, f3trials)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *dos {
		res, err := experiments.DoS(0)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *eff {
		fmt.Println(experiments.Efficiency())
	}
	if all || *explorer {
		res, err := experiments.Explorer(*quick)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
}
