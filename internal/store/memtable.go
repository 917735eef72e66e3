package store

import "sort"

// memtable accumulates the net effect of every mutation since the last
// WAL rotation — the segment engine's in-memory write buffer. It is not
// a separate index: the live store state already serves reads; the
// memtable exists so a flush can serialise *only the recent window* to a
// sorted immutable segment instead of rewriting the whole corpus.
//
// Concurrency: the memtable has no lock of its own. Each field is
// written exclusively under the same subsystem write lock that guards
// its live counterpart (images under imagesMu, features under featMu,
// and so on — see the Store lock map), because every write happens
// inside the applyX functions while those locks are held. The freeze
// swap reads the whole struct under all six locks, so no field is ever
// read while another goroutine can write it.
//
// Deletes both scrub the in-window rows and record a tombstone: the
// tombstone kills older copies living in already-flushed segments, while
// the scrub keeps a create-then-delete inside one window from flushing
// at all. Within a segment, tombstones apply before rows (see
// loadSegment), so a delete-then-readd of the same ID in one window
// nets out to the fresh row.
type memtable struct {
	images      map[uint64]*Image
	features    map[uint64]map[string][]float64
	classes     map[uint64]*Classification
	annotations map[uint64][]Annotation
	keywords    map[uint64][]string
	users       map[uint64]*User
	apiKeys     map[string]*APIKey
	videos      map[uint64]*Video
	campaigns   map[uint64]*CampaignRec
	deletes     map[uint64]bool
	// nextID is the allocator high-water mark, stamped at freeze time
	// (under all six locks) rather than per-op, so concurrent subsystems
	// never contend on it.
	nextID uint64
}

func newMemtable() *memtable {
	return &memtable{
		images:      make(map[uint64]*Image),
		features:    make(map[uint64]map[string][]float64),
		classes:     make(map[uint64]*Classification),
		annotations: make(map[uint64][]Annotation),
		keywords:    make(map[uint64][]string),
		users:       make(map[uint64]*User),
		apiKeys:     make(map[string]*APIKey),
		videos:      make(map[uint64]*Video),
		campaigns:   make(map[uint64]*CampaignRec),
		deletes:     make(map[uint64]bool),
	}
}

// ---- Record methods (called from applyX under that subsystem's lock) ----

func (m *memtable) addImage(img *Image) { m.images[img.ID] = img }

func (m *memtable) putFeature(f *Feature) {
	kinds := m.features[f.ImageID]
	if kinds == nil {
		kinds = make(map[string][]float64)
		m.features[f.ImageID] = kinds
	}
	kinds[f.Kind] = f.Vec
}

func (m *memtable) addClass(c *Classification) { m.classes[c.ID] = c }

func (m *memtable) addAnnotation(a *Annotation) {
	m.annotations[a.ImageID] = append(m.annotations[a.ImageID], *a)
}

func (m *memtable) addKeywords(imageID uint64, words []string) {
	m.keywords[imageID] = append(m.keywords[imageID], words...)
}

func (m *memtable) addUser(u *User)            { m.users[u.ID] = u }
func (m *memtable) addAPIKey(k *APIKey)        { m.apiKeys[k.Key] = k }
func (m *memtable) addVideo(v *Video)          { m.videos[v.ID] = v }
func (m *memtable) addCampaign(c *CampaignRec) { m.campaigns[c.ID] = c }

// deleteImage scrubs the in-window rows for id and records a tombstone
// against older segments. Callers hold imagesMu..geoMu (the delete lock
// set), which covers every map touched here.
//
//tvdp:requires imagesMu,featMu,annMu,kwMu,geoMu
func (m *memtable) deleteImage(id uint64) {
	delete(m.images, id)
	delete(m.features, id)
	delete(m.annotations, id)
	delete(m.keywords, id)
	m.deletes[id] = true
}

// absorb merges one already-sorted segment into the accumulator, oldest
// first — the compaction merge. Tombstones apply before rows, mirroring
// loadSegment, so a segment's net window semantics survive the merge.
func (m *memtable) absorb(seg *segmentData) {
	for _, id := range seg.Tombstones {
		//tvdp:nolint guardedby the accumulator is a compaction-private memtable no reader can see; the lock contract protects only the live window
		m.deleteImage(id)
	}
	for _, img := range seg.Images {
		m.addImage(img)
	}
	for _, c := range seg.Classifications {
		m.addClass(c)
	}
	for _, f := range seg.Features {
		m.putFeature(f)
	}
	for _, a := range seg.Annotations {
		m.addAnnotation(a)
	}
	for _, k := range seg.Keywords {
		m.addKeywords(k.ImageID, k.Words)
	}
	for _, u := range seg.Users {
		m.addUser(u)
	}
	for _, k := range seg.APIKeys {
		m.addAPIKey(k)
	}
	for _, v := range seg.Videos {
		m.addVideo(v)
	}
	for _, c := range seg.Campaigns {
		m.addCampaign(c)
	}
	if seg.NextID > m.nextID {
		m.nextID = seg.NextID
	}
}

// toSegment serialises the window as a sorted immutable segment. Every
// slice is ordered by its key (per-image slices keep their append
// order), so a given logical window always produces identical segment
// bytes regardless of map iteration order. dropTombstones is set by
// compaction when the merge covered the full segment prefix: with no
// older segment left underneath, the tombstones have nothing left to
// kill and would only pin garbage forever.
func (m *memtable) toSegment(dropTombstones bool) *segmentData {
	seg := &segmentData{NextID: m.nextID}
	if !dropTombstones {
		for id := range m.deletes {
			seg.Tombstones = append(seg.Tombstones, id)
		}
		sort.Slice(seg.Tombstones, func(i, j int) bool { return seg.Tombstones[i] < seg.Tombstones[j] })
	}
	for _, img := range m.images {
		seg.Images = append(seg.Images, img)
	}
	sort.Slice(seg.Images, func(i, j int) bool { return seg.Images[i].ID < seg.Images[j].ID })
	for id, kinds := range m.features {
		for kind, vec := range kinds {
			seg.Features = append(seg.Features, &Feature{ImageID: id, Kind: kind, Vec: vec})
		}
	}
	sort.Slice(seg.Features, func(i, j int) bool {
		if seg.Features[i].ImageID != seg.Features[j].ImageID {
			return seg.Features[i].ImageID < seg.Features[j].ImageID
		}
		return seg.Features[i].Kind < seg.Features[j].Kind
	})
	for _, c := range m.classes {
		seg.Classifications = append(seg.Classifications, c)
	}
	sort.Slice(seg.Classifications, func(i, j int) bool {
		return seg.Classifications[i].ID < seg.Classifications[j].ID
	})
	var imgIDs []uint64
	for id := range m.annotations {
		imgIDs = append(imgIDs, id)
	}
	sort.Slice(imgIDs, func(i, j int) bool { return imgIDs[i] < imgIDs[j] })
	for _, id := range imgIDs {
		for i := range m.annotations[id] {
			a := m.annotations[id][i]
			seg.Annotations = append(seg.Annotations, &a)
		}
	}
	imgIDs = imgIDs[:0]
	for id := range m.keywords {
		imgIDs = append(imgIDs, id)
	}
	sort.Slice(imgIDs, func(i, j int) bool { return imgIDs[i] < imgIDs[j] })
	for _, id := range imgIDs {
		seg.Keywords = append(seg.Keywords, keywordOp{ImageID: id, Words: m.keywords[id]})
	}
	for _, u := range m.users {
		seg.Users = append(seg.Users, u)
	}
	sort.Slice(seg.Users, func(i, j int) bool { return seg.Users[i].ID < seg.Users[j].ID })
	for _, k := range m.apiKeys {
		seg.APIKeys = append(seg.APIKeys, k)
	}
	sort.Slice(seg.APIKeys, func(i, j int) bool { return seg.APIKeys[i].Key < seg.APIKeys[j].Key })
	for _, v := range m.videos {
		seg.Videos = append(seg.Videos, v)
	}
	sort.Slice(seg.Videos, func(i, j int) bool { return seg.Videos[i].ID < seg.Videos[j].ID })
	for _, c := range m.campaigns {
		seg.Campaigns = append(seg.Campaigns, c)
	}
	sort.Slice(seg.Campaigns, func(i, j int) bool { return seg.Campaigns[i].ID < seg.Campaigns[j].ID })
	return seg
}
