// Command genexperiments runs every experiment of the reproduction and
// writes EXPERIMENTS.md: the paper-versus-measured record for all tables
// and figures. Regenerate with:
//
//	go run ./cmd/genexperiments > EXPERIMENTS.md
package main

import (
	"bufio"
	"fmt"
	"os"

	"pacesweep/internal/experiments"
)

func main() {
	w := bufio.NewWriter(os.Stdout)
	err := experiments.WriteRecord(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genexperiments:", err)
		os.Exit(1)
	}
}
