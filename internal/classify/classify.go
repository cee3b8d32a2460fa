// Package classify implements the §4.2 campaign-identification pipeline: a
// bag-of-words model over HTML tag–attribute–value triplets, multiclass
// L1-regularised logistic regression (one-vs-rest, trained with proximal
// gradient descent — the same model family the paper fits with LIBLINEAR),
// k-fold cross-validation, and the iterative label-refinement loop that
// grows the training set from high-confidence predictions verified against
// an oracle.
package classify

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Doc is one training or evaluation document: its extracted features and
// (for labeled docs) its campaign label.
type Doc struct {
	Features []string
	Label    string
}

// Options configures training.
type Options struct {
	// Lambda is the regularisation strength.
	Lambda float64
	// Reg selects the penalty: L1 (sparse, interpretable — the paper's
	// choice), L2, or none (the abl-l1 ablation).
	Reg Regularizer
	// LearningRate and Epochs drive the proximal gradient loop.
	LearningRate float64
	Epochs       int
	// EpochCounter, when non-nil, accumulates gradient epochs actually run
	// (Epochs per binary subproblem). Telemetry only: training never reads
	// it.
	EpochCounter *telemetry.Counter
	// Pool, when non-nil, receives the class-block fan-out's accounting.
	Pool parallel.PoolObserver
}

// Regularizer selects the penalty.
type Regularizer int

// Supported penalties.
const (
	L1 Regularizer = iota
	L2
	NoReg
)

// String implements fmt.Stringer.
func (r Regularizer) String() string {
	switch r {
	case L1:
		return "l1"
	case L2:
		return "l2"
	default:
		return "none"
	}
}

// DefaultOptions returns the study configuration.
func DefaultOptions() Options {
	return Options{Lambda: 0.004, Reg: L1, LearningRate: 0.6, Epochs: 60}
}

// Vocab maps feature strings to dense indices.
type Vocab struct {
	index map[string]int
	terms []string
}

// BuildVocab collects the union of features across docs.
func BuildVocab(docs []Doc) *Vocab {
	v := &Vocab{index: make(map[string]int)}
	for _, d := range docs {
		for _, f := range d.Features {
			if _, ok := v.index[f]; !ok {
				v.index[f] = len(v.terms)
				v.terms = append(v.terms, f)
			}
		}
	}
	return v
}

// Size returns the vocabulary size.
func (v *Vocab) Size() int { return len(v.terms) }

// Term returns the feature string at index i.
func (v *Vocab) Term(i int) string { return v.terms[i] }

// vector converts features into sorted unique indices (binary bag of
// words); unknown features are dropped.
func (v *Vocab) vector(features []string) []int {
	seen := make(map[int]struct{}, len(features))
	for _, f := range features {
		if idx, ok := v.index[f]; ok {
			seen[idx] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Model is a trained one-vs-rest multiclass classifier.
type Model struct {
	Classes []string
	Vocab   *Vocab
	weights [][]float64 // per class, len == Vocab.Size()
	bias    []float64
}

// Train fits the model on labeled docs: one binary subproblem per class
// (one-vs-rest), each fitted with full-batch proximal gradient descent
// (ISTA for L1), positives up-weighted to balance the heavy negative skew
// each subproblem has with 52 classes.
//
// The classes are split into min(GOMAXPROCS, classes) contiguous blocks
// that train concurrently on the parallel pool (with one CPU, one inline
// block holds every class). A block makes one pass over the docs per epoch
// for all of its classes, and feature columns that occur in exactly the
// same docs share one weight and gradient slot. Neither changes any class's
// own sequence of float operations, so the weights are bit-identical to
// fitting each class alone, at every GOMAXPROCS.
func Train(docs []Doc, opts Options) *Model {
	classSet := make(map[string]struct{})
	for _, d := range docs {
		classSet[d.Label] = struct{}{}
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	vocab := BuildVocab(docs)
	X := make([][]int, len(docs))
	label := make([]int, len(docs))
	for i, d := range docs {
		X[i] = vocab.vector(d.Features)
		label[i] = sort.SearchStrings(classes, d.Label)
	}
	ds := newDesign(X, vocab.Size())
	blocks := min(parallel.Workers(0), len(classes))
	type fit struct {
		weights [][]float64
		bias    []float64
	}
	fits := make([]fit, blocks)
	parallel.ForEachObserved(blocks, blocks, func(bi int) {
		lo, hi := bi*len(classes)/blocks, (bi+1)*len(classes)/blocks
		w, b := ds.trainBlock(label, lo, hi, opts)
		fits[bi] = fit{w, b}
		opts.EpochCounter.Add(int64(opts.Epochs) * int64(hi-lo))
	}, opts.Pool)
	m := &Model{Classes: classes, Vocab: vocab}
	for _, f := range fits {
		m.weights = append(m.weights, f.weights...)
		m.bias = append(m.bias, f.bias...)
	}
	return m
}

// design is the training matrix with its columns collapsed into groups.
// Columns that occur in exactly the same docs receive the same gradient
// terms in the same doc order, so their weights stay bit-identical and one
// slot serves them all.
type design struct {
	// group maps each vocabulary column to its group; ids ascend with each
	// group's first column.
	group  []int32
	groups int
	// feat[i] lists the group of each of doc i's features in ascending
	// column order (the dot product's term order); uniq[i] lists doc i's
	// distinct groups once each (the gradient scatter).
	feat, uniq [][]int32
}

func newDesign(X [][]int, dim int) *design {
	// A column's signature is its ascending doc-index list.
	sigs := make([][]byte, dim)
	for i, xi := range X {
		for _, j := range xi {
			sigs[j] = binary.AppendUvarint(sigs[j], uint64(i))
		}
	}
	ds := &design{
		group: make([]int32, dim),
		feat:  make([][]int32, len(X)),
		uniq:  make([][]int32, len(X)),
	}
	// leads marks each group's first column: a doc holds a group exactly
	// when it holds that column.
	leads := make([]bool, dim)
	ids := make(map[string]int32, dim)
	for j, sig := range sigs {
		id, ok := ids[string(sig)]
		if !ok {
			id = int32(len(ids))
			ids[string(sig)] = id
			leads[j] = true
		}
		ds.group[j] = id
	}
	ds.groups = len(ids)
	for i, xi := range X {
		feat := make([]int32, len(xi))
		var uniq []int32
		for k, j := range xi {
			feat[k] = ds.group[j]
			if leads[j] {
				uniq = append(uniq, ds.group[j])
			}
		}
		ds.feat[i], ds.uniq[i] = feat, uniq
	}
	return ds
}

// trainBlock fits classes [lo, hi) against the docs' class indices and
// returns each one's dense weights and its bias. While training, the
// weights are laid out [group][class-lo].
func (ds *design) trainBlock(label []int, lo, hi int, opts Options) ([][]float64, []float64) {
	width := hi - lo
	w := make([]float64, ds.groups*width)
	b := make([]float64, width)
	n := float64(len(label))
	posWeight := make([]float64, width)
	for _, l := range label {
		if l >= lo && l < hi {
			posWeight[l-lo]++
		}
	}
	for c, npos := range posWeight {
		pw := 1.0
		if npos > 0 {
			pw = (n - npos) / npos
			if pw > 60 {
				pw = 60
			}
			if pw < 1 {
				pw = 1
			}
		}
		posWeight[c] = pw
	}
	grad := make([]float64, len(w))
	gradB := make([]float64, width)
	// z holds each class's logit for the current doc, then its gradient
	// term g.
	z := make([]float64, width)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		clear(grad)
		clear(gradB)
		for i, feat := range ds.feat {
			copy(z, b)
			for _, g := range feat {
				row := w[int(g)*width:][:len(z)]
				for c := range z {
					z[c] += row[c]
				}
			}
			// g = p - y, with y = 0 for every class but the doc's own.
			for c := range z {
				z[c] = sigmoid(z[c])
			}
			if c := label[i] - lo; c >= 0 && c < width {
				z[c] = (z[c] - 1) * posWeight[c]
			}
			for c := range z {
				gradB[c] += z[c]
			}
			for _, g := range ds.uniq[i] {
				row := grad[int(g)*width:][:len(z)]
				for c := range z {
					row[c] += z[c]
				}
			}
		}
		lr := opts.LearningRate / (1 + 0.03*float64(epoch))
		for k := range w {
			if grad[k] != 0 {
				w[k] -= lr * grad[k] / n
			}
			switch opts.Reg {
			case L1:
				// Soft threshold (proximal step for the L1 penalty).
				t := lr * opts.Lambda
				switch {
				case w[k] > t:
					w[k] -= t
				case w[k] < -t:
					w[k] += t
				default:
					w[k] = 0
				}
			case L2:
				w[k] *= 1 - lr*opts.Lambda
			}
		}
		for c := range b {
			b[c] -= lr * gradB[c] / n
		}
	}
	dense := make([][]float64, width)
	for c := range dense {
		dense[c] = make([]float64, len(ds.group))
		for j, g := range ds.group {
			dense[c][j] = w[int(g)*width+c]
		}
	}
	return dense, b
}

func sigmoid(z float64) float64 {
	if z < -35 {
		return 0
	}
	if z > 35 {
		return 1
	}
	return 1 / (1 + math.Exp(-z))
}

// Prediction is a scored class assignment.
type Prediction struct {
	Label string
	Prob  float64
}

// Predict returns the most likely campaign for a document's features,
// with the (one-vs-rest, renormalised) probability attached.
func (m *Model) Predict(features []string) Prediction {
	xi := m.Vocab.vector(features)
	best, bestScore := "", math.Inf(-1)
	var total float64
	probs := make([]float64, len(m.Classes))
	for ci := range m.Classes {
		z := m.bias[ci]
		w := m.weights[ci]
		for _, j := range xi {
			z += w[j]
		}
		p := sigmoid(z)
		probs[ci] = p
		total += p
		if p > bestScore {
			bestScore = p
			best = m.Classes[ci]
		}
	}
	conf := bestScore
	if total > 0 {
		conf = bestScore / total
	}
	return Prediction{Label: best, Prob: conf}
}

// Sparsity reports the nonzero and total weight counts — the
// interpretability property the paper uses L1 for.
func (m *Model) Sparsity() (nonzero, total int) {
	for _, w := range m.weights {
		for _, x := range w {
			if x != 0 {
				nonzero++
			}
			total++
		}
	}
	return nonzero, total
}

// TopFeatures returns the k most strongly weighted features for a class —
// the campaign's learned signature.
func (m *Model) TopFeatures(class string, k int) []string {
	ci := -1
	for i, c := range m.Classes {
		if c == class {
			ci = i
		}
	}
	if ci < 0 {
		return nil
	}
	type fw struct {
		j int
		w float64
	}
	var all []fw
	for j, w := range m.weights[ci] {
		if w > 0 {
			all = append(all, fw{j, w})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].w != all[b].w {
			return all[a].w > all[b].w
		}
		return all[a].j < all[b].j
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = m.Vocab.Term(all[i].j)
	}
	return out
}

// CrossValidate runs k-fold cross-validation and returns mean held-out
// accuracy. Folds are assigned round-robin after a deterministic ordering,
// matching the paper's 10-fold protocol.
func CrossValidate(docs []Doc, k int, opts Options) float64 {
	if k < 2 || len(docs) < k {
		return 0
	}
	var correct, totalN int
	for fold := 0; fold < k; fold++ {
		var train, test []Doc
		for i, d := range docs {
			if i%k == fold {
				test = append(test, d)
			} else {
				train = append(train, d)
			}
		}
		m := Train(train, opts)
		for _, d := range test {
			if m.Predict(d.Features).Label == d.Label {
				correct++
			}
			totalN++
		}
	}
	return float64(correct) / float64(totalN)
}

// RefineResult summarises one round of the §4.2.3 human-machine loop.
type RefineResult struct {
	Round     int
	Labeled   int // training-set size after the round
	Accepted  int // verified predictions promoted to labels
	Rejected  int // high-confidence predictions the oracle rejected
	CVAcc     float64
	ClassesIn int
}

// Refine grows a labeled seed set by classifying unlabeled docs, taking the
// topK most confident predictions per round, and asking the verify oracle
// (standing in for the analyst checking shared infrastructure) whether each
// predicted label is right. Verified docs join the training set; the model
// is retrained each round.
func Refine(seed []Doc, unlabeled []Doc, verify func(docIdx int, predicted string) bool,
	rounds, topK int, opts Options) (*Model, []RefineResult) {

	labeled := append([]Doc(nil), seed...)
	taken := make([]bool, len(unlabeled))
	var history []RefineResult
	var model *Model
	for round := 0; round < rounds; round++ {
		model = Train(labeled, opts)
		type cand struct {
			idx  int
			pred Prediction
		}
		var cands []cand
		for i, d := range unlabeled {
			if taken[i] {
				continue
			}
			cands = append(cands, cand{i, model.Predict(d.Features)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].pred.Prob != cands[b].pred.Prob {
				return cands[a].pred.Prob > cands[b].pred.Prob
			}
			return cands[a].idx < cands[b].idx
		})
		if topK < len(cands) {
			cands = cands[:topK]
		}
		res := RefineResult{Round: round}
		for _, c := range cands {
			taken[c.idx] = true
			if verify(c.idx, c.pred.Label) {
				labeled = append(labeled, Doc{
					Features: unlabeled[c.idx].Features,
					Label:    c.pred.Label,
				})
				res.Accepted++
			} else {
				res.Rejected++
			}
		}
		res.Labeled = len(labeled)
		classSet := map[string]struct{}{}
		for _, d := range labeled {
			classSet[d.Label] = struct{}{}
		}
		res.ClassesIn = len(classSet)
		history = append(history, res)
		if res.Accepted == 0 && res.Rejected == 0 {
			break
		}
	}
	model = Train(labeled, opts)
	return model, history
}
