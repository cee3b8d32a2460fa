// Quickstart: build a miniature world, run the full study, and print the
// headline results — Table 1, the attribution split, and the intervention
// summary. Everything goes through the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	searchseizure "repro"
)

func main() {
	cfg := searchseizure.TestConfig()
	fmt.Println("Search + Seizure quickstart")
	fmt.Printf("building a miniature ecosystem (scale %.2f, %d terms x %d results per vertical)...\n",
		cfg.Scale, cfg.TermsPerVertical, cfg.SlotsPerTerm)

	start := time.Now()
	study, err := searchseizure.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world ready (%v): 52 named campaigns + %d-campaign unlabeled tail\n",
		time.Since(start).Round(time.Millisecond), cfg.TailCampaigns)
	fmt.Printf("campaign classifier trained on %d seed pages: 10-fold CV accuracy %.1f%%\n",
		len(study.World.SeedDocs), 100*study.World.CVAccuracy)

	fmt.Println("\nrunning the eight-month crawl (plus the Figure-5 tail)...")
	start = time.Now()
	data, err := study.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println(study.MustExperiment("table1"))

	fmt.Printf("attributed to the 52 known campaigns: %.0f%% of PSR observations (paper: 58%%)\n",
		100*data.AttributedShare())
	fmt.Printf("observed domain seizures: %d; campaign reactions: %d\n\n",
		len(data.Seizures), len(data.Reactions))

	fmt.Println(study.MustExperiment("fig3"))
	fmt.Println("next: go run ./cmd/experiments -list   (every table and figure by id)")
}
