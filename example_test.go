package searchseizure_test

import (
	"context"
	"fmt"
	"log"

	searchseizure "repro"
)

// Example shows the minimal end-to-end flow: build a miniature world, run
// the eight-month study, and render one of the paper's tables. Output is
// omitted because it depends on the configured world size.
func Example() {
	cfg := searchseizure.TestConfig()
	study, err := searchseizure.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	data, err := study.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("PSR observations: %d\n", data.TotalPSRs())
	fmt.Println(study.MustExperiment("table1"))
	fmt.Println(study.MustExperiment("seizurelife"))
}

// Example_experiments enumerates the reproducible tables and figures.
func Example_experiments() {
	for _, e := range searchseizure.Experiments() {
		fmt.Printf("%s: %s\n", e.ID, e.Title)
	}
	for _, a := range searchseizure.Ablations() {
		fmt.Printf("%s: %s\n", a.ID, a.Title)
	}
}
