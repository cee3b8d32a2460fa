package classify

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/htmlgen"
	"repro/internal/rng"
	"repro/internal/simclock"
)

func corpus(t testing.TB, scale float64) []Doc {
	t.Helper()
	r := rng.New(71)
	specs := campaign.Roster(simclock.StudyWindow())
	deps := campaign.DeployAll(r.Sub("deploy"), specs, scale)
	gen := htmlgen.New(r)
	return BuildCorpus(r, gen, deps, DefaultCorpusOptions())
}

func quickOpts() Options {
	o := DefaultOptions()
	o.Epochs = 25
	return o
}

func TestTrainPredictSeparatesCampaigns(t *testing.T) {
	docs := corpus(t, 0.05)
	m := Train(docs, quickOpts())
	if len(m.Classes) != 52 {
		t.Fatalf("classes = %d, want 52", len(m.Classes))
	}
	// Training accuracy must be high.
	var correct int
	for _, d := range docs {
		if m.Predict(d.Features).Label == d.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(docs))
	if acc < 0.85 {
		t.Fatalf("training accuracy = %v", acc)
	}
}

func TestCrossValidationAccuracyInPaperRange(t *testing.T) {
	docs := corpus(t, 0.22)
	acc := CrossValidate(docs, 10, quickOpts())
	// The paper reports 86.8% for 52-way classification; demand the same
	// regime: far above chance (1/52 ≈ 2%), below perfect.
	if acc < 0.70 {
		t.Fatalf("10-fold CV accuracy = %v, want >= 0.70", acc)
	}
	if acc >= 0.995 {
		t.Fatalf("10-fold CV accuracy = %v; corpus too separable to be realistic", acc)
	}
	t.Logf("10-fold CV accuracy: %.3f (paper: 0.868)", acc)
}

func TestL1ProducesSparseModels(t *testing.T) {
	docs := corpus(t, 0.03)
	l1 := Train(docs, quickOpts())
	o := quickOpts()
	o.Reg = NoReg
	dense := Train(docs, o)
	nz1, tot1 := l1.Sparsity()
	nzD, _ := dense.Sparsity()
	if nz1 >= nzD {
		t.Fatalf("L1 nonzeros (%d) must be below unregularised (%d)", nz1, nzD)
	}
	if nz1 == 0 || tot1 == 0 {
		t.Fatal("degenerate model")
	}
	frac := float64(nz1) / float64(tot1)
	if frac > 0.5 {
		t.Fatalf("L1 model not sparse: %.2f nonzero", frac)
	}
}

func TestTopFeaturesRecoverSignatures(t *testing.T) {
	docs := corpus(t, 0.05)
	m := Train(docs, quickOpts())
	// The MSVALIDATE campaign's signature marker should be among its most
	// strongly weighted features.
	top := m.TopFeatures("MSVALIDATE", 25)
	var found bool
	for _, f := range top {
		if strings.Contains(f, "msvalidate") || strings.Contains(f, "msv") {
			found = true
		}
	}
	if !found {
		t.Fatalf("MSVALIDATE top features lack its marker: %v", top)
	}
	if m.TopFeatures("NOSUCH", 5) != nil {
		t.Fatal("unknown class must yield nil")
	}
}

func TestPredictProbabilities(t *testing.T) {
	docs := corpus(t, 0.03)
	m := Train(docs, quickOpts())
	p := m.Predict(docs[0].Features)
	if p.Prob <= 0 || p.Prob > 1 {
		t.Fatalf("prob = %v", p.Prob)
	}
}

func TestCrossValidateDegenerateInputs(t *testing.T) {
	if CrossValidate(nil, 10, quickOpts()) != 0 {
		t.Fatal("empty corpus must CV to 0")
	}
	docs := corpus(t, 0.01)
	if CrossValidate(docs[:3], 10, quickOpts()) != 0 {
		t.Fatal("fewer docs than folds must CV to 0")
	}
}

func TestVocabDeterministic(t *testing.T) {
	docs := corpus(t, 0.02)
	a, b := BuildVocab(docs), BuildVocab(docs)
	if a.Size() != b.Size() {
		t.Fatal("vocab size nondeterministic")
	}
	for i := 0; i < a.Size(); i++ {
		if a.Term(i) != b.Term(i) {
			t.Fatal("vocab order nondeterministic")
		}
	}
}

// TestTrainDeterministicAcrossWorkerCounts checks the class-blocked trainer
// against referenceTrain bit for bit, at every block count GOMAXPROCS 1, 2
// and 8 produce, for each penalty, on full corpora and every 10-fold
// training set.
func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	type set struct {
		name string
		docs []Doc
	}
	sets := []set{{"hand", handCorpus()}}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"scale0.02", 0.02}, {"scale0.22", 0.22}} {
		docs := corpus(t, c.scale)
		sets = append(sets, set{c.name, docs})
		for fold := 0; fold < 10; fold++ {
			var train []Doc
			for i, d := range docs {
				if i%10 != fold {
					train = append(train, d)
				}
			}
			sets = append(sets, set{fmt.Sprintf("%s/fold%d", c.name, fold), train})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// An infinite step turns a zero gradient's update into NaN, so the hand
	// corpus also pins the kernel's grad != 0 guard, which no finite step
	// can observe.
	infStep := quickOpts()
	infStep.LearningRate, infStep.Epochs = math.Inf(1), 1
	for _, set := range sets {
		opts := []Options{quickOpts()}
		if set.name == "hand" {
			opts = append(opts, infStep)
		}
		for _, o := range opts {
			for _, reg := range []Regularizer{L1, L2, NoReg} {
				o.Reg = reg
				want := referenceTrain(set.docs, o)
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got := Train(set.docs, o)
					if msg := diffModels(got, want); msg != "" {
						t.Fatalf("%s, %s, step %v, GOMAXPROCS %d: %s", set.name, reg, o.LearningRate, procs, msg)
					}
				}
			}
		}
	}
}

// handCorpus has no two columns with the same doc set, a class with a
// single doc ("z"), a doc with no features and a repeated feature. Class x
// holds half the docs, so its positive weight is 1 and column g, in one x
// doc and one y doc, has an exactly zero first-epoch gradient for x.
func handCorpus() []Doc {
	return []Doc{
		{Features: []string{"a", "b"}, Label: "x"},
		{Features: []string{"b", "c", "b"}, Label: "x"},
		{Features: []string{"a", "c", "d"}, Label: "y"},
		{Features: nil, Label: "y"},
		{Features: []string{"e", "d", "a"}, Label: "z"},
		{Features: []string{"c", "f"}, Label: "x"},
		{Features: []string{"g"}, Label: "x"},
		{Features: []string{"g", "h"}, Label: "y"},
	}
}

// diffModels describes the first bit-level difference between two models,
// or returns "" when they are identical.
func diffModels(got, want *Model) string {
	if !slices.Equal(got.Classes, want.Classes) {
		return fmt.Sprintf("classes %v, want %v", got.Classes, want.Classes)
	}
	for ci, class := range want.Classes {
		if a, b := math.Float64bits(got.bias[ci]), math.Float64bits(want.bias[ci]); a != b {
			return fmt.Sprintf("class %s bias %#x, want %#x", class, a, b)
		}
		if len(got.weights[ci]) != len(want.weights[ci]) {
			return fmt.Sprintf("class %s has %d weights, want %d", class, len(got.weights[ci]), len(want.weights[ci]))
		}
		for j, w := range want.weights[ci] {
			if a, b := math.Float64bits(got.weights[ci][j]), math.Float64bits(w); a != b {
				return fmt.Sprintf("class %s weight %d (%s) %#x, want %#x", class, j, want.Vocab.Term(j), a, b)
			}
		}
	}
	return ""
}

// TestDesignCollapsesDuplicateColumns pins the column grouping the
// reference test relies on: real corpora collapse heavily, the hand corpus
// not at all, and every doc's group lists mirror its features.
func TestDesignCollapsesDuplicateColumns(t *testing.T) {
	for _, c := range []struct {
		name      string
		docs      []Doc
		collapses bool
	}{{"hand", handCorpus(), false}, {"scale0.02", corpus(t, 0.02), true}} {
		vocab := BuildVocab(c.docs)
		X := make([][]int, len(c.docs))
		for i, d := range c.docs {
			X[i] = vocab.vector(d.Features)
		}
		ds := newDesign(X, vocab.Size())
		if got := ds.groups < vocab.Size(); got != c.collapses {
			t.Fatalf("%s: %d groups for %d columns", c.name, ds.groups, vocab.Size())
		}
		for i, xi := range X {
			seen := map[int32]bool{}
			for k, j := range xi {
				if ds.feat[i][k] != ds.group[j] {
					t.Fatalf("%s: doc %d feature %d in group %d, want %d", c.name, i, k, ds.feat[i][k], ds.group[j])
				}
				seen[ds.group[j]] = true
			}
			if len(ds.uniq[i]) != len(seen) {
				t.Fatalf("%s: doc %d has %d distinct groups, want %d", c.name, i, len(ds.uniq[i]), len(seen))
			}
		}
	}
}

func TestRefinementGrowsTrainingSet(t *testing.T) {
	docs := corpus(t, 0.22)
	// Seed with a third of the corpus; the rest is "unlabeled" with ground
	// truth held by the oracle.
	var seed, unlabeled []Doc
	var truth []string
	for i, d := range docs {
		if i%3 == 0 {
			seed = append(seed, d)
		} else {
			unlabeled = append(unlabeled, Doc{Features: d.Features})
			truth = append(truth, d.Label)
		}
	}
	verify := func(i int, predicted string) bool { return truth[i] == predicted }
	model, history := Refine(seed, unlabeled, verify, 3, 60, quickOpts())
	if len(history) == 0 {
		t.Fatal("no refinement rounds")
	}
	last := history[len(history)-1]
	if last.Labeled <= len(seed) {
		t.Fatalf("training set did not grow: %d", last.Labeled)
	}
	if last.Accepted == 0 && history[0].Accepted == 0 {
		t.Fatal("no predictions verified")
	}
	// High-confidence predictions should mostly be right.
	accepted, rejected := 0, 0
	for _, h := range history {
		accepted += h.Accepted
		rejected += h.Rejected
	}
	if accepted <= rejected {
		t.Fatalf("refinement unreliable: %d accepted, %d rejected", accepted, rejected)
	}
	if model == nil {
		t.Fatal("no final model")
	}
}

func TestRegularizerString(t *testing.T) {
	if L1.String() != "l1" || L2.String() != "l2" || NoReg.String() != "none" {
		t.Fatal("names changed")
	}
}

func BenchmarkTrain(b *testing.B) {
	docs := corpus(b, 0.05)
	o := quickOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(docs, o)
	}
}

func BenchmarkPredict(b *testing.B) {
	docs := corpus(b, 0.05)
	m := Train(docs, quickOpts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(docs[i%len(docs)].Features)
	}
}
