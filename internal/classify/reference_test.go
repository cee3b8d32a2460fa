package classify

import "sort"

// referenceTrain is the straightforward one-vs-rest trainer Train must
// reproduce bit for bit: every class fitted alone by trainBinary over the
// full vocabulary, one class after another.
func referenceTrain(docs []Doc, opts Options) *Model {
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
	for i, d := range docs {
		X[i] = vocab.vector(d.Features)
	}
	m := &Model{
		Classes: classes,
		Vocab:   vocab,
		weights: make([][]float64, len(classes)),
		bias:    make([]float64, len(classes)),
	}
	for ci, class := range classes {
		y := make([]float64, len(docs))
		for i, d := range docs {
			if d.Label == class {
				y[i] = 1
			}
		}
		m.weights[ci], m.bias[ci] = trainBinary(X, y, vocab.Size(), opts)
	}
	return m
}

// trainBinary fits one binary logistic regression with full-batch proximal
// gradient descent (ISTA for L1). Positive examples are up-weighted to
// balance the heavy negative skew each one-vs-rest subproblem has with 52
// classes.
func trainBinary(X [][]int, y []float64, dim int, opts Options) ([]float64, float64) {
	w := make([]float64, dim)
	var b float64
	n := float64(len(X))
	if n == 0 {
		return w, b
	}
	var npos float64
	for _, v := range y {
		npos += v
	}
	posWeight := 1.0
	if npos > 0 {
		posWeight = (n - npos) / npos
		if posWeight > 60 {
			posWeight = 60
		}
		if posWeight < 1 {
			posWeight = 1
		}
	}
	grad := make([]float64, dim)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for i := range grad {
			grad[i] = 0
		}
		var gradB float64
		for i, xi := range X {
			z := b
			for _, j := range xi {
				z += w[j]
			}
			p := sigmoid(z)
			g := p - y[i]
			if y[i] > 0 {
				g *= posWeight
			}
			for _, j := range xi {
				grad[j] += g
			}
			gradB += g
		}
		lr := opts.LearningRate / (1 + 0.03*float64(epoch))
		for j := range w {
			if grad[j] != 0 {
				w[j] -= lr * grad[j] / n
			}
			switch opts.Reg {
			case L1:
				// Soft threshold (proximal step for the L1 penalty).
				t := lr * opts.Lambda
				switch {
				case w[j] > t:
					w[j] -= t
				case w[j] < -t:
					w[j] += t
				default:
					w[j] = 0
				}
			case L2:
				w[j] *= 1 - lr*opts.Lambda
			}
		}
		b -= lr * gradB / n
	}
	opts.EpochCounter.Add(int64(opts.Epochs))
	return w, b
}
