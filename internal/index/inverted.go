package index

import (
	"math"
	"sort"
	"strings"
)

// Inverted is a keyword → posting-list index with TF-IDF ranking for the
// textual queries of §IV-C (Zobel & Moffat style inverted files).
type Inverted struct {
	// postings[term][docID] = term frequency.
	postings map[string]map[uint64]int
	// docLens[docID] = token count; also the document registry.
	docLens map[uint64]int
}

// NewInverted returns an empty index.
func NewInverted() *Inverted {
	return &Inverted{
		postings: make(map[string]map[uint64]int),
		docLens:  make(map[uint64]int),
	}
}

// Add indexes the document's terms; re-adding an ID merges new terms into
// the existing posting lists (keywords accumulate on TVDP images).
func (ix *Inverted) Add(id uint64, terms []string) {
	for _, t := range terms {
		t = strings.ToLower(t)
		if t == "" {
			continue
		}
		m := ix.postings[t]
		if m == nil {
			m = make(map[uint64]int)
			ix.postings[t] = m
		}
		m[id]++
		ix.docLens[id]++
	}
}

// Remove deletes a document from every posting list.
func (ix *Inverted) Remove(id uint64) {
	if _, ok := ix.docLens[id]; !ok {
		return
	}
	for term, m := range ix.postings {
		delete(m, id)
		if len(m) == 0 {
			delete(ix.postings, term)
		}
	}
	delete(ix.docLens, id)
}

// DocFreqs returns the corpus statistics the TF-IDF scorer consumes: the
// number of indexed documents and, aligned with terms, each term's
// document frequency in this index. A sharded deployment sums these
// across shards and feeds the totals back through SearchAnyStats /
// SearchAllStats, so per-shard scoring uses global IDF and matches a
// single-index build bit for bit.
func (ix *Inverted) DocFreqs(terms []string) (docs int, df []int) {
	df = make([]int, len(terms))
	for i, t := range terms {
		df[i] = len(ix.postings[strings.ToLower(t)])
	}
	return len(ix.docLens), df
}

// SearchAny returns documents matching at least one query term, ranked by
// TF-IDF score descending (ties by ascending ID).
func (ix *Inverted) SearchAny(terms []string) []Match {
	docs, df := ix.DocFreqs(terms)
	return ix.SearchAnyStats(terms, docs, df)
}

// SearchAnyStats is SearchAny scored with caller-supplied corpus
// statistics (docs and per-term document frequencies, as from DocFreqs —
// possibly summed over several indexes). Posting lists still come from
// this index; only the IDF weights use the supplied stats.
func (ix *Inverted) SearchAnyStats(terms []string, docs int, df []int) []Match {
	scores := make(map[uint64]float64)
	n := float64(docs)
	if n == 0 {
		return nil
	}
	for i, t := range terms {
		t = strings.ToLower(t)
		m := ix.postings[t]
		if len(m) == 0 || df[i] == 0 {
			continue
		}
		idf := math.Log2(n/float64(df[i])) + 1
		for id, tf := range m {
			scores[id] += float64(tf) * idf
		}
	}
	if len(scores) == 0 {
		return nil
	}
	out := make([]Match, 0, len(scores))
	for id, s := range scores {
		// Higher score = better; reuse Match.Dist as the score with
		// descending sort below.
		out = append(out, Match{ID: id, Dist: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist > out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// FilterIDs keeps, in order, the ids indexed under at least one of terms
// (every term when all is set) — the membership SearchAny / SearchAll
// decide, without scoring or sorting. Terms match case-insensitively; an
// empty terms list keeps nothing. It compacts ids in place and returns
// the kept prefix.
func (ix *Inverted) FilterIDs(ids []uint64, terms []string, all bool) []uint64 {
	out := ids[:0]
	if len(terms) == 0 {
		return out
	}
	lists := make([]map[uint64]int, len(terms))
	for i, t := range terms {
		lists[i] = ix.postings[strings.ToLower(t)]
	}
	for _, id := range ids {
		// For any, keep on the first list holding id; for all, drop on
		// the first list missing it.
		keep := all
		for _, m := range lists {
			if _, ok := m[id]; ok != all {
				keep = ok
				break
			}
		}
		if keep {
			out = append(out, id)
		}
	}
	return out
}

// SearchAll returns documents containing every query term (conjunctive),
// ranked by TF-IDF.
func (ix *Inverted) SearchAll(terms []string) []Match {
	docs, df := ix.DocFreqs(terms)
	return ix.SearchAllStats(terms, docs, df)
}

// SearchAllStats is SearchAll scored with caller-supplied corpus
// statistics (see SearchAnyStats). The conjunctive filter still tests
// this index's own postings: a document must carry every term locally,
// which holds in a sharded deployment because all keywords of one image
// live on its shard.
func (ix *Inverted) SearchAllStats(terms []string, docs int, df []int) []Match {
	if len(terms) == 0 {
		return nil
	}
	any := ix.SearchAnyStats(terms, docs, df)
	out := any[:0]
	for _, m := range any {
		hasAll := true
		for _, t := range terms {
			if ix.postings[strings.ToLower(t)][m.ID] == 0 {
				hasAll = false
				break
			}
		}
		if hasAll {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
