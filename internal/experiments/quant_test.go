package experiments

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/feature"
	"repro/internal/index"
)

// TestQuantScanKeepsFig6Quality pins the int8 read path's quality on the
// paper's corpus features: QuantTopK recall@10 against ExactTopK stays at
// or above 0.9 for colour and CNN features, and the Fig. 6 verdict (CNN
// neighbours share the query's class more often than colour neighbours)
// holds for both rankings.
func TestQuantScanKeepsFig6Quality(t *testing.T) {
	const (
		k       = 10
		queries = 40
		seed    = 7
	)
	c := smoke(t)
	ctx := context.Background()
	// purity is the fraction of top-k neighbours, self excluded, that
	// share the query's class label.
	purity := func(self uint64, label int, ms []index.Match) float64 {
		same, total := 0, 0
		for _, m := range ms {
			if m.ID == self {
				continue
			}
			total++
			if c.Labels[m.ID-1] == label {
				same++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(same) / float64(total)
	}
	type quality struct{ recall, exactPurity, quantPurity float64 }
	measure := func(kind string) quality {
		feats := c.Features[kind]
		lsh, err := index.NewLSH(len(feats[0]), index.DefaultLSHConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range feats {
			if err := lsh.Insert(uint64(i+1), v); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var q quality
		for range queries {
			ti := c.TestIdx[rng.Intn(len(c.TestIdx))]
			self, label, vec := uint64(ti+1), c.Labels[ti], feats[ti]
			exact, err := lsh.ExactTopK(ctx, vec, k)
			if err != nil {
				t.Fatal(err)
			}
			quant, err := lsh.QuantTopK(ctx, vec, k)
			if err != nil {
				t.Fatal(err)
			}
			inExact := make(map[uint64]bool, len(exact))
			for _, m := range exact {
				inExact[m.ID] = true
			}
			hits := 0
			for _, m := range quant {
				if inExact[m.ID] {
					hits++
				}
			}
			q.recall += float64(hits) / k
			q.exactPurity += purity(self, label, exact)
			q.quantPurity += purity(self, label, quant)
		}
		q.recall /= queries
		q.exactPurity /= queries
		q.quantPurity /= queries
		return q
	}
	colour := measure(string(feature.KindColorHist))
	cnn := measure(string(feature.KindCNN))
	for kind, q := range map[string]quality{"colour": colour, "cnn": cnn} {
		if q.recall < 0.9 {
			t.Errorf("%s: quantized recall@%d = %.3f, want >= 0.9 (%+v)", kind, k, q.recall, q)
		}
	}
	if cnn.exactPurity < colour.exactPurity || cnn.quantPurity < colour.quantPurity {
		t.Errorf("Fig. 6 ordering (CNN >= colour purity) broke under quantization: colour %+v, cnn %+v", colour, cnn)
	}
}
