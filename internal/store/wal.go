package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// WAL v2 record format, used by the segment engine's per-generation logs
// (wal-%06d.log, see engine.go). The file starts with a 16-byte header:
//
//	magic (8 bytes) | generation (8 bytes, little-endian)
//
// followed by self-delimiting frames:
//
//	payload length (4 bytes LE) | CRC32C of payload (4 bytes LE) | payload
//
// Each payload is one walOp encoded as a self-contained gob stream, so
// every frame decodes on its own. That independence is what makes
// append-after-reopen safe: a log sharing one encoder per file session
// would restart gob's type-descriptor numbering at each reopen and the
// next replay would die with "duplicate type received".
//
// Recovery walks frames until the first one that is incomplete or fails
// its checksum at end-of-file — a torn write — and repairs the log by
// truncating it there. A checksum failure or impossible length with
// further data behind it is mid-log corruption and surfaces as
// ErrWALCorrupt instead of being silently dropped.

const (
	walHeaderSize      = 16
	walFrameHeaderSize = 8
	// maxWALRecord bounds a frame's claimed payload size; anything larger
	// is treated as corruption rather than attempted as an allocation.
	maxWALRecord = 1 << 28
)

// walMagic identifies a v2 log.
var walMagic = [8]byte{0xB6, 'T', 'V', 'W', 'A', 'L', 'v', '2'}

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// walOp is one durable mutation. Exactly one payload field is set,
// selected by Kind.
type walOp struct {
	Kind           string
	Image          *Image
	Feature        *Feature
	Classification *Classification
	Annotation     *Annotation
	Keyword        *keywordOp
	User           *User
	APIKey         *APIKey
	Video          *Video
	Campaign       *CampaignRec
	DeleteImageID  uint64
}

type keywordOp struct {
	ImageID uint64
	Words   []string
}

// WAL op kinds.
const (
	opAddImage      = "add_image"
	opAddFeature    = "add_feature"
	opAddClass      = "add_classification"
	opAddAnnotation = "add_annotation"
	opAddKeywords   = "add_keywords"
	opAddUser       = "add_user"
	opAddAPIKey     = "add_api_key"
	opAddVideo      = "add_video"
	opAddCampaign   = "add_campaign"
	opDeleteImage   = "delete_image"
)

// walBackend is the file surface the writer appends through. It exists so
// fault-injection tests can interpose a failing or corrupting wrapper
// (see faultfs_test.go) between the writer and the real file.
type walBackend interface {
	io.Writer
	Sync() error
	Close() error
}

// newWALBackend wraps every freshly opened WAL file; tests swap it to
// inject faults at chosen byte offsets.
var newWALBackend = func(f *os.File) walBackend { return f }

// walWriter is the open log file the committer appends CRC-framed ops
// to.
type walWriter struct {
	b walBackend
}

// walName returns the per-generation log filename.
func walName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

// parseWALName extracts the generation from a per-generation log name
// ("wal-<gen>.log"). walName's %06d is only a *minimum* print width —
// generations past 999999 grow to seven digits and beyond — so the
// parse takes every digit rather than a fixed width (a width-limited
// Sscanf would read only the first six and break the chain check after
// ~1M flushes).
func parseWALName(base string) (uint64, bool) {
	digits, ok := strings.CutPrefix(base, "wal-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".log")
	if !ok || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

func walHeader(gen uint64) []byte {
	h := make([]byte, walHeaderSize)
	copy(h, walMagic[:])
	binary.LittleEndian.PutUint64(h[8:], gen)
	return h
}

// walPayloadEncoder amortises gob type descriptors across frames. Every
// frame payload must stay a self-contained gob stream (recovery decodes
// each frame with a fresh decoder), but a fresh encoder per frame spends
// most of its time re-serialising the walOp type graph. gob emits the
// full static type graph once, up front, on an encoder's first Encode of
// a type; this cache captures those descriptor bytes and prepends them to
// the bare value message a long-lived encoder produces per op — the same
// wire bytes a fresh encoder would emit, at a fraction of the CPU.
type walPayloadEncoder struct {
	mu     sync.Mutex
	enc    *gob.Encoder
	buf    bytes.Buffer
	prefix []byte
}

var walPayloads walPayloadEncoder

func (e *walPayloadEncoder) encode(op walOp) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.enc == nil {
		// Prime: the first Encode yields descriptors + value; encoding the
		// same op again yields the value message alone, so the descriptor
		// prefix falls out by length subtraction.
		e.buf.Reset()
		enc := gob.NewEncoder(&e.buf)
		if err := enc.Encode(op); err != nil {
			return nil, err
		}
		full := append([]byte(nil), e.buf.Bytes()...)
		e.buf.Reset()
		if err := enc.Encode(op); err != nil {
			return nil, err
		}
		e.prefix = full[:len(full)-e.buf.Len()]
		e.enc = enc
		return full, nil
	}
	e.buf.Reset()
	if err := e.enc.Encode(op); err != nil {
		// The shared encoder's sent-type state is unknown after a failed
		// encode; drop it so the next frame re-primes from scratch.
		e.enc = nil
		e.prefix = nil
		return nil, err
	}
	out := make([]byte, 0, len(e.prefix)+e.buf.Len())
	out = append(out, e.prefix...)
	out = append(out, e.buf.Bytes()...)
	return out, nil
}

// encodeFrame serialises one op as a self-contained frame: length, CRC32C,
// then a standalone gob payload (type descriptors via walPayloads).
func encodeFrame(op walOp) ([]byte, error) {
	payload, err := walPayloads.encode(op)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxWALRecord {
		// Refuse to write what recovery would refuse to read.
		return nil, fmt.Errorf("op payload is %d bytes, over the %d-byte frame limit", len(payload), maxWALRecord)
	}
	frame := make([]byte, walFrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRCTable))
	copy(frame[walFrameHeaderSize:], payload)
	return frame, nil
}

func (w *walWriter) close() error {
	if w == nil || w.b == nil {
		return nil
	}
	err := w.b.Sync()
	if cerr := w.b.Close(); err == nil {
		err = cerr
	}
	w.b = nil
	return err
}

// createWAL atomically installs a fresh, empty generation-gen log named
// name and returns a writer positioned for append. The temp-file + rename + directory-fsync sequence
// guarantees a crash leaves either the previous log or the complete new
// one, never a half-written header.
func createWAL(dir, name string, gen uint64) (*walWriter, error) {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	b := newWALBackend(f)
	fail := func(err error) (*walWriter, error) {
		// A failed close can mean buffered bytes never hit the disk; it
		// belongs in the reported error alongside whatever failed first.
		err = errors.Join(err, b.Close())
		os.Remove(tmp)
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	if _, err := b.Write(walHeader(gen)); err != nil {
		return fail(err)
	}
	if err := b.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	if err := fsyncDir(dir); err != nil {
		return fail(err)
	}
	return &walWriter{b: b}, nil
}

// openWALAppend opens an existing, already-validated log for appending.
func openWALAppend(dir, name string) (*walWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	return &walWriter{b: newWALBackend(f)}, nil
}

// walkWALFrames walks the frame region of a v2 log (everything after the
// 16-byte header), feeding each decoded op to apply. It returns the
// number of bytes consumed by complete, valid frames and whether the tail
// past that point is torn (incomplete, or a checksum failure confined to
// the final frame). Mid-log damage — an impossible length or a checksum
// mismatch with further data behind it — is ErrWALCorrupt, never silently
// skipped.
func walkWALFrames(data []byte, apply func(walOp) error) (consumed int, torn bool, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < walFrameHeaderSize {
			return off, true, nil
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxWALRecord {
			// A torn write is always a strict prefix of valid bytes, so a
			// fully-present-but-impossible length means corruption.
			return off, false, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrWALCorrupt, off, length)
		}
		end := off + walFrameHeaderSize + length
		if end > len(data) {
			return off, true, nil
		}
		payload := data[off+walFrameHeaderSize : end]
		if crc32.Checksum(payload, walCRCTable) != sum {
			if end == len(data) {
				// Damage confined to the final frame is indistinguishable
				// from a torn append; drop that frame and keep the prefix.
				return off, true, nil
			}
			return off, false, fmt.Errorf("%w: checksum mismatch in frame at offset %d", ErrWALCorrupt, off)
		}
		var op walOp
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&op); err != nil {
			return off, false, fmt.Errorf("%w: undecodable frame at offset %d: %v", ErrWALCorrupt, off, err)
		}
		if err := apply(op); err != nil {
			return off, false, fmt.Errorf("store: applying WAL op %s: %w", op.Kind, err)
		}
		off = end
	}
	return off, false, nil
}

func repairTornTail(path string, keep int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: repairing torn WAL tail: %w", err)
	}
	err = f.Truncate(keep)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: repairing torn WAL tail: %w", err)
	}
	return nil
}

// fsyncDir makes a just-renamed or just-removed directory entry durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	return nil
}
