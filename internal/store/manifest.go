package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest is the segment engine's root pointer: a small versioned
// file recording the live segment set and how much of WAL history those
// segments already contain. Every flush and every compaction installs a
// new manifest atomically (temp + rename + dir fsync, the same
// discipline as a WAL install), so recovery always sees either the old segment set or
// the new one — never a half-installed mixture. Files not reachable from
// the manifest (a crashed flush's orphan segment, a superseded
// compaction input, a fully-flushed WAL generation) are garbage and are
// swept at open.

const manifestFile = "MANIFEST"

// manifestVersion is the on-disk format version; a newer-versioned
// manifest refuses to open rather than being misread.
const manifestVersion = 1

var manifestMagic = [8]byte{0xB8, 'T', 'V', 'M', 'A', 'N', 'v', '1'}

// segmentRef is one live segment in manifest order (oldest first).
type segmentRef struct {
	Name  string
	Rows  int
	Bytes int64
}

// manifest is the gob-serialised manifest payload.
type manifest struct {
	Version int
	// FlushedGen: every WAL generation <= this is fully contained in
	// Segments; recovery replays only generations above it.
	FlushedGen uint64
	// NextSeg is the next segment file number to allocate (never reused).
	NextSeg  uint64
	Segments []segmentRef
}

// clone returns a deep copy safe to mutate while the original is still
// the live manifest.
func (m manifest) clone() manifest {
	m.Segments = append([]segmentRef(nil), m.Segments...)
	return m
}

// writeManifest atomically installs a new manifest.
func writeManifest(dir string, m manifest) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	_, err := writeBlob(dir, manifestFile, manifestMagic, buf.Bytes())
	return err
}

// readManifest loads the manifest, returning (nil, nil) when the
// directory has none (a fresh directory).
func readManifest(dir string) (*manifest, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	payload, err := readBlob(dir, manifestFile, manifestMagic)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: undecodable manifest: %v", ErrWALCorrupt, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d is newer than this build understands (%d)", m.Version, manifestVersion)
	}
	return &m, nil
}
