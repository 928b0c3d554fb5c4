// Package wal implements the crash-safe measurement write-ahead log
// under the serve tier's persistence (ROADMAP open item 1): an
// append-only, CRC32C-framed record log in which one record is one
// durable commit — a budget charge plus the measurement block it paid
// for — so that durability costs O(delta) bytes per measurement instead
// of a full-state rewrite, and a restart replays the log to the
// exact pre-crash state.
//
// # File format
//
// A log file is an 8-byte magic header ("EKWAL001") followed by frames:
//
//	uint32 LE payload length | uint8 record type | payload | uint32 LE CRC32C
//
// The checksum (Castagnoli polynomial) covers the type byte and the
// payload, so a flipped bit anywhere in a frame — length, type, body or
// trailer — fails verification. Payloads are opaque bytes to this
// package; the serve tier stores JSON there (one block codec for every
// record, which is what keeps a replayed log byte-identical solver
// input).
//
// # Torn-tail recovery
//
// The reader (Scan, used by Open) accepts the longest clean prefix: it
// stops at the first frame that is truncated, type-invalid or
// checksum-mismatched and reports everything before it. A crash mid
// append therefore never makes a log unreadable — Open truncates the
// torn tail and resumes appending at the clean length. Corruption in
// the middle of the file behaves the same way (everything from the
// first bad frame on is dropped): with prefix-durable appends that is
// exactly the crash semantics, and for byte rot it is the documented
// trade — a clean prefix always loads, bytes after damage are gone.
//
// # Durability
//
// Every append is synced before it returns: one record is one
// privacy-relevant commit, and a commit that was acknowledged and then
// lost on power failure would have its budget granted again on restart.
// Close syncs too.
//
// # Checkpoint compaction
//
// Replace folds a log into its writer's state: it durably writes a
// fresh log image holding only the given records (atomic temp file +
// rename + directory sync) over the old log and reopens it for appends.
// The serve tier writes the records that rebuild a dataset from nothing
// (its replication bootstrap stream), so a compacted log is an ordinary
// log whose head is that stream and replays like any other. A crash
// before the rename leaves the old log, a crash after it the new one;
// either replays to the same state.
//
// # Fault injection
//
// All file I/O goes through the FS interface. OSFS is the real
// filesystem; FaultFS wraps any FS with injectable failures
// (fail-writes, fail-sync, short-write, crash-after-N-bytes) and drives
// the crash-recovery test matrix in this package and in internal/serve.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// Magic is the 8-byte log file header.
const Magic = "EKWAL001"

// Type tags a record. Payload semantics belong to the writer (the
// serve tier); the reader only validates the tag range.
type Type uint8

const (
	// TypeDatasetCreate pins the dataset identity (name, domain, budget)
	// as the first record of a fresh log.
	TypeDatasetCreate Type = 1
	// TypeMeasurementBlock is one durable commit: a budget charge plus
	// the measurement block(s) it paid for, stamped with the log
	// generation.
	TypeMeasurementBlock Type = 2
	// TypeBudgetRestore records budget spent without measurements
	// landing (a failed plan's partial spend), as an absolute consumed
	// value.
	TypeBudgetRestore Type = 3
	// TypeCheckpointMarker opened a log compacted into a separate
	// checkpoint file in older versions. Nothing writes it, and serve
	// refuses a log or stream that holds one. It stays a valid frame type
	// so Scan reads such a log whole for that refusal, instead of
	// truncating it as a torn tail and loading the rest.
	TypeCheckpointMarker Type = 4
	// TypeAuditCheckpoint pins the audit ledger head (leaf count and
	// Merkle root) after a commit; replay must reproduce the root or
	// the dataset fails to open.
	TypeAuditCheckpoint Type = 5
	// TypeAuditState carries the full audit leaf-hash list plus the
	// watermarks it reaches. It opens replication bootstrap streams —
	// so a follower joining after the stream was trimmed can rebuild
	// the ledger the collapsed measurement frame no longer implies —
	// and, shipped verbatim to a follower's local log, replays on the
	// follower's own restart.
	TypeAuditState Type = 6
)

func (t Type) valid() bool { return t >= TypeDatasetCreate && t <= TypeAuditState }

// Record is one decoded log record.
type Record struct {
	Type    Type
	Payload []byte
}

// MaxPayload bounds a single record, so a corrupted length prefix
// cannot force an absurd allocation before the checksum is verified.
const MaxPayload = 1 << 28

// FrameHeader is the number of bytes a frame carries ahead of its
// payload: length and type.
const FrameHeader = 4 + 1

// frameOverhead is the per-record framing cost: length, type, CRC.
const frameOverhead = FrameHeader + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// AppendFrame appends the framed encoding of one record to dst and
// returns the extended slice. Exported so tests and the fuzz target can
// re-encode what Scan accepted and assert byte-identity.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = slices.Grow(dst, frameOverhead+len(payload)) // SealFrame then appends in place
	n := len(dst)
	dst = append(append(dst, make([]byte, FrameHeader)...), payload...)
	return dst[:n+len(SealFrame(dst[n:], t))]
}

// SealFrame completes a frame assembled in place: buf is FrameHeader
// reserved bytes followed by the payload. It fills in the length and
// type and appends the checksum, so a large payload is never copied
// into its frame.
func SealFrame(buf []byte, t Type) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-FrameHeader))
	buf[4] = byte(t)
	return binary.LittleEndian.AppendUint32(buf, crc32.Update(0, castagnoli, buf[4:]))
}

// Scan decodes the longest clean prefix of a log image: the records of
// every complete, checksum-valid frame before the first bad one, plus
// the byte length of that prefix (magic included). It never fails —
// a missing or corrupt header simply yields an empty prefix — and never
// returns a partially decoded record. Payload slices alias data.
func Scan(data []byte) (recs []Record, cleanLen int) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, 0
	}
	off := len(Magic)
	for {
		rec, n, ok := scanFrame(data[off:])
		if !ok {
			return recs, off
		}
		recs = append(recs, rec)
		off += n
	}
}

// FrameVerifiesAs reports whether b opens with a whole frame whose
// checksum verifies for type t, whatever its type byte holds: a frame
// damaged only in its type byte still shows what it was written as.
func FrameVerifiesAs(b []byte, t Type) bool {
	if len(b) < frameOverhead {
		return false
	}
	plen := binary.LittleEndian.Uint32(b[:4])
	if plen > MaxPayload || int(plen) > len(b)-frameOverhead {
		return false
	}
	end := FrameHeader + int(plen)
	summed := b[FrameHeader-1 : end] // the type byte and the payload
	if Type(summed[0]) != t {
		summed = append([]byte{byte(t)}, summed[1:]...)
	}
	return binary.LittleEndian.Uint32(b[end:end+4]) == crc32.Checksum(summed, castagnoli)
}

// scanFrame decodes one frame from the head of b, reporting its total
// length; ok is false on a truncated, oversized, type-invalid or
// checksum-mismatched frame.
func scanFrame(b []byte) (rec Record, n int, ok bool) {
	if len(b) < FrameHeader || !Type(b[4]).valid() || !FrameVerifiesAs(b, Type(b[4])) {
		return Record{}, 0, false
	}
	end := FrameHeader + int(binary.LittleEndian.Uint32(b[:4]))
	return Record{Type: Type(b[4]), Payload: b[FrameHeader:end]}, end + 4, true
}

// PolicyAlways is the one value Options.Policy accepts.
const PolicyAlways = "always"

// Options tunes a log.
type Options struct {
	// Policy must be "" or PolicyAlways: every append is synced. The
	// field goes once the benchmark harness stops setting it.
	Policy string
	// FS is the filesystem; nil means OSFS.
	FS FS
	// Check, when set, vets the image Open read — its bytes and the
	// records of its clean prefix — before Open changes anything on
	// disk: an error fails Open with the file untouched. Replace ignores
	// it.
	Check func(data []byte, recs []Record) error
}

func (o Options) fill() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Log is an open write-ahead log positioned for appends.
type Log struct {
	path   string
	f      File
	closed bool
}

// Open opens (creating if absent) the log at path, recovers the clean
// prefix, truncates any torn tail, and returns the log positioned for
// appends along with the recovered records. A torn tail is recovery,
// not failure; only real I/O errors (or an invalid Options.Policy) fail.
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.Policy != "" && opts.Policy != PolicyAlways {
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %q", opts.Policy)
	}
	opts = opts.fill()
	fs := opts.FS

	data, err := fs.ReadFile(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, clean := Scan(data)
	if opts.Check != nil {
		if err := opts.Check(data, recs); err != nil {
			return nil, nil, err
		}
	}
	if clean < len(data) {
		// Torn or corrupt tail: cut back to the clean prefix so appends
		// continue from a verifiable state. clean == 0 (a destroyed
		// header) degenerates to an empty log, which Truncate + the
		// header rewrite in newLog repair.
		if err := fs.Truncate(path, int64(clean)); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s at %d: %w", path, clean, err)
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := newLog(f, path, clean)
	if err == nil && fresh {
		// A new file survives a power loss only once its directory is
		// synced.
		if err = fs.SyncDir(filepath.Dir(path)); err != nil {
			err = fmt.Errorf("wal: sync directory of %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Deep-copy payloads out of the file image before returning them.
	for i := range recs {
		recs[i].Payload = append([]byte(nil), recs[i].Payload...)
	}
	return l, recs, nil
}

// newLog positions a log for appends on f, which holds size clean
// bytes; a file without a whole header first gets one, durably.
func newLog(f File, path string, size int) (*Log, error) {
	if size < len(Magic) {
		if _, err := f.Write([]byte(Magic)); err != nil {
			return nil, fmt.Errorf("wal: write header %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: sync header %s: %w", path, err)
		}
	}
	return &Log{path: path, f: f}, nil
}

// Append frames, writes and syncs one record.
// The frame is written in a single Write call, so with prefix-durable
// appends a crash leaves either no trace of the record or a torn frame
// the next Open truncates. Any error leaves the log unusable for
// further appends (the caller should degrade to read-only and let a
// restart recover the clean prefix).
func (l *Log) Append(t Type, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: record payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	return l.AppendFramed(AppendFrame(nil, t, payload))
}

// AppendFramed is Append for a record already in AppendFrame's encoding
// (the serve tier puts the same bytes on its replication stream). A
// frame that does not scan back as exactly one record is refused.
func (l *Log) AppendFramed(frame []byte) error {
	if l.closed {
		return ErrClosed
	}
	if _, n, ok := scanFrame(frame); !ok || n != len(frame) {
		return fmt.Errorf("wal: append to %s: malformed frame of %d bytes", l.path, len(frame))
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	return nil
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return fmt.Errorf("wal: sync on close %s: %w", l.path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, cerr)
	}
	return nil
}

// WriteFileAtomic durably writes data at path via a temp file: write,
// sync, rename, then sync the parent directory, without which the
// rename itself is not durable. Readers of path see the old bytes or the
// new bytes, never a torn mix.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// Replace compacts the log at path: it atomically swaps it for a fresh
// log holding only recs and returns that log opened for appends (opts
// as the old log was opened with). The caller must have closed its
// handle on the old log. A record over
// MaxPayload, which Scan could not read back, fails before anything is
// written; any failure before the rename leaves the old log in place.
func Replace(path string, recs []Record, opts Options) (*Log, error) {
	opts = opts.fill()
	img := []byte(Magic)
	for _, r := range recs {
		if len(r.Payload) > MaxPayload {
			return nil, fmt.Errorf("wal: compact %s: record payload %d exceeds limit %d", path, len(r.Payload), MaxPayload)
		}
		img = AppendFrame(img, r.Type, r.Payload)
	}
	if err := WriteFileAtomic(opts.FS, path, img); err != nil {
		return nil, fmt.Errorf("wal: compact %s: %w", path, err)
	}
	f, err := opts.FS.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return newLog(f, path, len(img))
}
