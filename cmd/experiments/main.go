// Command experiments regenerates every table and figure of the paper's
// evaluation section. Select one with -run, or "all".
package main

import (
	"flag"
	"fmt"
	"os"

	"contextpref/internal/experiments"
)

func main() {
	runFlag := flag.String("run", "all", "experiment to run: table1|fig5|fig6|fig7|ablations|all")
	seed := flag.Int64("seed", 2007, "random seed")
	flag.Parse()
	if err := experiments.Run(os.Stdout, *runFlag, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
