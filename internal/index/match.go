package index

import (
	"math"
	"sort"
)

// Match is a scored search hit. Dist is the true (rooted) L2 distance in
// every slice an exported search returns; internally the index compares
// squared distances everywhere — squared L2 is monotone under sqrt, so
// ordering, top-k truncation, and radius thresholds (against r²) never
// need the root — and converts once, here, on the final matches.
type Match struct {
	ID   uint64
	Dist float64
}

// sortMatches orders by ascending distance, ties by ID, so results are
// deterministic under map iteration.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dist != ms[j].Dist {
			return ms[i].Dist < ms[j].Dist
		}
		return ms[i].ID < ms[j].ID
	})
}

// matchWorse is the strict total order the scans select under: greater
// distance loses, ties lose on greater ID. Using a total order (never
// "equal") makes bounded selection deterministic under map iteration,
// exactly like sortMatches.
func matchWorse(a, b Match) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// topSelector keeps the m best matches offered so far under the
// (Dist, ID) total order, independent of offer order. It replaces
// collect-everything-then-sort in the scan loops: O(n log m) with a
// fixed m-element buffer instead of O(n log n) time and O(n) garbage
// per query. Internally a binary max-heap with the worst kept match at
// the root.
type topSelector struct {
	m  int
	hs []Match
}

func newTopSelector(m int) *topSelector {
	return &topSelector{m: m, hs: make([]Match, 0, m)}
}

// offer considers one match, evicting the current worst if the buffer
// is full and the newcomer beats it. The body is only the reject test —
// small enough to inline into the scan loops, so the overwhelmingly
// common case (candidate loses to everything kept) costs two compares
// and no call. Accepts (O(m log n/m) of them per scan) take the slow
// path.
func (s *topSelector) offer(c Match) {
	if len(s.hs) == s.m && !matchWorse(s.hs[0], c) {
		return
	}
	s.accept(c)
}

// bound is the largest distance a newcomer can have and still be kept:
// the worst kept distance once the buffer is full, +Inf before. A scan
// may stop computing a candidate's distance once it exceeds bound (see
// vecmath.SquaredL2Int8Bound); offer rejects such a partial sum just as
// it would the full distance.
func (s *topSelector) bound() float64 {
	if len(s.hs) < s.m {
		return math.Inf(1)
	}
	return s.hs[0].Dist
}

// accept inserts a match known to belong in the buffer.
func (s *topSelector) accept(c Match) {
	if len(s.hs) < s.m {
		s.hs = append(s.hs, c)
		i := len(s.hs) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !matchWorse(s.hs[i], s.hs[p]) {
				break
			}
			s.hs[i], s.hs[p] = s.hs[p], s.hs[i]
			i = p
		}
		return
	}
	s.hs[0] = c
	i := 0
	for {
		worst := i
		if l := 2*i + 1; l < len(s.hs) && matchWorse(s.hs[l], s.hs[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(s.hs) && matchWorse(s.hs[r], s.hs[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.hs[i], s.hs[worst] = s.hs[worst], s.hs[i]
		i = worst
	}
}

// results returns the kept matches sorted ascending (the selector is
// spent afterwards: the returned slice is its buffer).
func (s *topSelector) results() []Match {
	sortMatches(s.hs)
	return s.hs
}

// finalizeMatches converts squared distances to true L2 distances in
// place, on the final (already truncated) result set. This function is
// the one place index code may call math.Sqrt: the sqrtscan analyzer
// rejects math.Sqrt anywhere else in the package, which is what keeps
// per-candidate roots from creeping back into the scan loops.
func finalizeMatches(ms []Match) {
	for i := range ms {
		ms[i].Dist = math.Sqrt(ms[i].Dist)
	}
}
