package store

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geo"
)

// IDFilter is a conjunction of per-image predicates for FilterIDs. Unset
// fields (nil, empty) do not constrain.
type IDFilter struct {
	// Scene keeps images whose scene rect intersects it.
	Scene *geo.Rect
	// Time keeps images captured in [From, To].
	Time *TimeRange
	// Labels keeps images that satisfy every entry.
	Labels []LabelFilter
	// Text keeps images whose keywords match it.
	Text *TextFilter
}

// TimeRange is an inclusive capture-time interval.
type TimeRange struct {
	From, To time.Time
}

// LabelFilter keeps images carrying an annotation with this
// classification and label and, when MinConfidence > 0, at least that
// confidence.
type LabelFilter struct {
	ClassificationID uint64
	Label            int
	MinConfidence    float64
}

// TextFilter keeps images indexed under at least one of Terms (every
// term when MatchAll), compared case-insensitively like SearchText and
// SearchTextAll. An empty Terms keeps nothing, as those searches return
// nothing for it.
type TextFilter struct {
	Terms    []string
	MatchAll bool
}

// FilterIDs returns, in input order, the ids that satisfy every set
// field of f — the membership half of the Search* primitives, evaluated
// on candidates another clause produced instead of over the corpus: no
// scoring, no sorting, one map probe per candidate and predicate. Each
// subsystem it reads is locked once, for read, in the documented order
// (imagesMu, annMu, kwMu). A candidate no longer in the image table fails
// the call with ErrNotFound when f constrains scene or time (the row
// those predicates read is gone); otherwise it is simply dropped. ids is
// not modified.
func (s *Store) FilterIDs(ctx context.Context, ids []uint64, f IDFilter) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := append([]uint64(nil), ids...)
	if f.Scene != nil || f.Time != nil {
		var err error
		if out, err = s.filterImages(out, f.Scene, f.Time); err != nil {
			return nil, err
		}
	}
	if len(f.Labels) > 0 {
		out = s.filterLabels(out, f.Labels)
	}
	if f.Text != nil {
		s.kwMu.RLock()
		out = s.text.FilterIDs(out, f.Text.Terms, f.Text.MatchAll)
		s.kwMu.RUnlock()
	}
	return out, nil
}

// filterImages keeps the ids whose image row matches the scene and time
// predicates, compacting ids in place.
func (s *Store) filterImages(ids []uint64, scene *geo.Rect, tr *TimeRange) ([]uint64, error) {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	out := ids[:0]
	for _, id := range ids {
		img, ok := s.images[id]
		if !ok {
			return nil, fmt.Errorf("%w: image %d", ErrNotFound, id)
		}
		if scene != nil && !img.Scene.Intersects(*scene) {
			continue
		}
		if tr != nil && (img.TimestampCapturing.Before(tr.From) || img.TimestampCapturing.After(tr.To)) {
			continue
		}
		out = append(out, id)
	}
	return out, nil
}

// filterLabels keeps the ids that satisfy every label filter, compacting
// ids in place.
func (s *Store) filterLabels(ids []uint64, lfs []LabelFilter) []uint64 {
	s.annMu.RLock()
	defer s.annMu.RUnlock()
	out := ids[:0]
	for _, id := range ids {
		anns := s.annotations[id]
		keep := true
		for _, lf := range lfs {
			if !hasLabel(anns, lf.ClassificationID, lf.Label, lf.MinConfidence) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, id)
		}
	}
	return out
}

// hasLabel reports whether anns holds a (classID, label) annotation with
// confidence at least minConfidence (any confidence when minConfidence
// <= 0).
func hasLabel(anns []Annotation, classID uint64, label int, minConfidence float64) bool {
	for _, a := range anns {
		if a.ClassificationID == classID && a.Label == label && (minConfidence <= 0 || a.Confidence >= minConfidence) {
			return true
		}
	}
	return false
}
