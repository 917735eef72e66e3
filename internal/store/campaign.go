package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
)

// Campaign rows: a participant-created data-collection campaign over a
// region (paper §III: "enabling a participant to create a data collection
// campaign for certain types of visual data at specific locations").
// Images uploaded toward a campaign carry its ID, which lets the platform
// measure per-campaign progress.

// CampaignRec is the stored campaign entity.
type CampaignRec struct {
	ID     uint64
	Name   string
	Region geo.Rect
	// TargetCoverage in (0, 1] is the campaign's goal.
	TargetCoverage float64
	// CreatedBy references the owning user (0 = unknown).
	CreatedBy uint64
	CreatedAt time.Time
}

// CreateCampaign registers a campaign and returns its ID. A zero c.ID is
// allocated here; a preset ID (from the shard coordinator's global
// allocator) is honored as-is.
func (s *Store) CreateCampaign(c CampaignRec) (uint64, error) {
	if c.Name == "" {
		return 0, fmt.Errorf("%w: campaign needs a name", ErrInvalid)
	}
	if !c.Region.Valid() || c.Region.Area() == 0 {
		return 0, fmt.Errorf("%w: campaign needs a non-degenerate region", ErrInvalid)
	}
	if c.TargetCoverage <= 0 || c.TargetCoverage > 1 {
		return 0, fmt.Errorf("%w: target coverage %.3f out of (0,1]", ErrInvalid, c.TargetCoverage)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if c.ID == 0 {
		c.ID = s.nextID.Add(1)
	}
	frame, err := s.encode(walOp{Kind: opAddCampaign, Campaign: &c})
	if err != nil {
		return 0, err
	}
	s.catalogMu.Lock()
	if s.closed.Load() {
		s.catalogMu.Unlock()
		return 0, ErrClosed
	}
	if err := s.applyCampaign(&c); err != nil {
		s.catalogMu.Unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	s.catalogMu.Unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return c.ID, nil
}

// applyCampaign registers a campaign row. Callers hold catalogMu.
//
//tvdp:requires catalogMu
func (s *Store) applyCampaign(c *CampaignRec) error {
	if _, dup := s.campaigns[c.ID]; dup {
		return fmt.Errorf("%w: campaign %d", ErrDuplicate, c.ID)
	}
	s.bumpNextID(c.ID)
	s.campaigns[c.ID] = c
	if s.mem != nil {
		s.mem.addCampaign(c)
	}
	return nil
}

// GetCampaign returns a campaign by ID.
func (s *Store) GetCampaign(id uint64) (CampaignRec, error) {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	c, ok := s.campaigns[id]
	if !ok {
		return CampaignRec{}, fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	return *c, nil
}

// Campaigns lists all campaigns sorted by ID.
func (s *Store) Campaigns() []CampaignRec {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	out := make([]CampaignRec, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CampaignImages returns the IDs of images uploaded toward a campaign,
// ascending.
func (s *Store) CampaignImages(campaignID uint64) []uint64 {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	var out []uint64
	for id, img := range s.images {
		if img.CampaignID == campaignID {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FOVsInRegion returns the FOVs of all images whose scenes intersect the
// region — the input to coverage measurement. Lock order: imagesMu →
// geoMu.
func (s *Store) FOVsInRegion(r geo.Rect) []geo.FOV {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	s.geoMu.RLock()
	ids := s.spatial.SearchRect(r)
	s.geoMu.RUnlock()
	out := make([]geo.FOV, 0, len(ids))
	for _, id := range ids {
		if img, ok := s.images[id]; ok {
			out = append(out, img.FOV)
		}
	}
	return out
}
