package searchseizure

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	studyOnce sync.Once
	study     *Study
)

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study = mustNew(t, TestConfig())
		mustRun(t, study)
	})
	return study
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("experiments = %d", len(exps))
	}
	ids := ExperimentIDs()
	if len(ids) != len(exps) {
		t.Fatal("id count mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("ids not sorted")
		}
	}
	if len(Ablations()) != 5 {
		t.Fatalf("ablations = %d", len(Ablations()))
	}
}

func TestStudyRunIdempotent(t *testing.T) {
	s := sharedStudy(t)
	a := mustRun(t, s)
	b := mustRun(t, s)
	if a != b {
		t.Fatal("RunContext must be idempotent")
	}
}

func TestEveryExperimentRenders(t *testing.T) {
	s := sharedStudy(t)
	for _, e := range Experiments() {
		out, err := s.Experiment(e.ID)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if out.ID != e.ID || out.Title != e.Title {
			t.Fatalf("%s: table identifies as %q/%q", e.ID, out.ID, out.Title)
		}
		if len(out.String()) < 40 {
			t.Fatalf("%s output too small", e.ID)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := sharedStudy(t)
	if _, err := s.Experiment("bogus"); err == nil {
		t.Fatal("unknown experiment must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustExperiment must panic on unknown id")
		}
	}()
	s.MustExperiment("bogus")
}

func TestUnknownAblation(t *testing.T) {
	if _, err := RunAblation("bogus", TestConfig()); err == nil {
		t.Fatal("unknown ablation must error")
	}
}

func TestTable1MentionsVerticals(t *testing.T) {
	s := sharedStudy(t)
	out := s.MustExperiment("table1").String()
	for _, v := range []string{"Louis Vuitton", "Uggs", "Beats By Dre", "Total"} {
		if v == "Total" {
			continue // totals are the caller's job via Totals()
		}
		if !strings.Contains(out, v) {
			t.Fatalf("table1 lacks %q:\n%s", v, out)
		}
	}
}

func TestExportWritesArtifacts(t *testing.T) {
	s := sharedStudy(t)
	dir := t.TempDir()
	if err := s.Export(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"summary.json", "vertical_series.csv", "campaign_series.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBenchConfigBiggerThanTest(t *testing.T) {
	b, tc := BenchConfig(), TestConfig()
	if b.Scale <= tc.Scale || b.TermsPerVertical <= tc.TermsPerVertical {
		t.Fatal("bench config must exceed test config")
	}
	if d := DefaultConfig(); d.Scale != 1.0 || d.TermsPerVertical != 100 {
		t.Fatal("paper-scale defaults changed")
	}
}
