package index

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Temporal indexes items by timestamp for the temporal-filter queries of
// §IV-C. It keeps a sorted slice with binary-search range scans —
// append-mostly insertion stays near O(1) amortised because captures
// arrive roughly in time order; out-of-order inserts are sorted in one
// O(n log n) pass by the next read.
//
// Concurrency: the owner serialises Insert and Remove against every other
// call (the store holds its write lock for them) but lets reads run
// together (under its read lock). Reads never write the index except
// through that one lazy sort, which sortMu makes exclusive: the first
// reader to find the slice unsorted sorts it, concurrent readers wait for
// it, and sorted publishes the result to later readers.
type Temporal struct {
	entries []temporalEntry
	sortMu  sync.Mutex
	sorted  atomic.Bool
}

type temporalEntry struct {
	at time.Time
	id uint64
}

// NewTemporal returns an empty index.
func NewTemporal() *Temporal {
	t := &Temporal{}
	t.sorted.Store(true)
	return t
}

// Insert adds (id, at). Out-of-order inserts mark the index for a lazy
// re-sort on the next query.
func (t *Temporal) Insert(id uint64, at time.Time) {
	if n := len(t.entries); n > 0 && at.Before(t.entries[n-1].at) {
		t.sorted.Store(false)
	}
	t.entries = append(t.entries, temporalEntry{at: at, id: id})
}

// Remove deletes the entry with the given id and timestamp; absent pairs
// are a no-op.
func (t *Temporal) Remove(id uint64, at time.Time) {
	t.ensureSorted()
	i := sort.Search(len(t.entries), func(i int) bool {
		return !t.entries[i].at.Before(at)
	})
	for ; i < len(t.entries) && t.entries[i].at.Equal(at); i++ {
		if t.entries[i].id == id {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return
		}
	}
}

// ensureSorted sorts the entries if an out-of-order insert left them
// unsorted. Safe to call from concurrent readers (see Temporal).
func (t *Temporal) ensureSorted() {
	if t.sorted.Load() {
		return
	}
	t.sortMu.Lock()
	defer t.sortMu.Unlock()
	if t.sorted.Load() {
		return
	}
	sort.Slice(t.entries, func(i, j int) bool {
		if !t.entries[i].at.Equal(t.entries[j].at) {
			return t.entries[i].at.Before(t.entries[j].at)
		}
		return t.entries[i].id < t.entries[j].id
	})
	t.sorted.Store(true)
}

// Range returns the IDs captured in [from, to] in ascending time order.
func (t *Temporal) Range(from, to time.Time) []uint64 {
	if to.Before(from) {
		return nil
	}
	t.ensureSorted()
	lo := sort.Search(len(t.entries), func(i int) bool {
		return !t.entries[i].at.Before(from)
	})
	var out []uint64
	for i := lo; i < len(t.entries) && !t.entries[i].at.After(to); i++ {
		out = append(out, t.entries[i].id)
	}
	return out
}

// TimeEntry is one (id, timestamp) hit from a range scan, exposed with
// its timestamp so a sharded merge can interleave per-shard ranges under
// the (At, ID) total order.
type TimeEntry struct {
	ID uint64
	At time.Time
}

// RangeEntries is Range with each hit's timestamp attached, in the same
// ascending time order.
func (t *Temporal) RangeEntries(from, to time.Time) []TimeEntry {
	if to.Before(from) {
		return nil
	}
	t.ensureSorted()
	lo := sort.Search(len(t.entries), func(i int) bool {
		return !t.entries[i].at.Before(from)
	})
	var out []TimeEntry
	for i := lo; i < len(t.entries) && !t.entries[i].at.After(to); i++ {
		out = append(out, TimeEntry{ID: t.entries[i].id, At: t.entries[i].at})
	}
	return out
}
