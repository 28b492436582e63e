package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// checkpointFile is the on-disk envelope: the payload bytes plus their
// sha256, so a checkpoint corrupted on disk (partial write, bit rot) is
// detected and recovery falls back to the previous one. The payload stays
// a RawMessage in the envelope so the digest is computed over the exact
// bytes that were decoded.
type checkpointFile struct {
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// The envelope layout writeCheckpoint emits, byte for byte what
// encoding/json emits for a checkpointFile, plus a newline.
const (
	envelopeSHA     = `{"sha256":"`
	envelopePayload = `","payload":`
	envelopeEnd     = "}\n"
)

// Checkpoint is a full durable snapshot of the service state between two
// journal entries. Recovery restores it and replays only journal entries
// with Seq > Checkpoint.Seq.
type Checkpoint struct {
	// Seq is the last journal sequence number applied before the snapshot
	// was taken.
	Seq uint64 `json:"seq"`
	// AuditOffset is the audit sink's byte length at the snapshot: on
	// recovery the audit file is truncated here and the journal tail replay
	// re-emits everything after, keeping the file's bytes identical to an
	// uninterrupted run's.
	AuditOffset int64 `json:"audit_offset"`
	// Init is the originating init request (nil before init).
	Init *InitRequest `json:"init,omitempty"`
	// Snapshot is the scheduler state (nil before init).
	Snapshot *core.LiveSnapshot `json:"snapshot,omitempty"`
	// Overrides is the live supply-override table, watts by slot.
	Overrides map[int]float64 `json:"overrides,omitempty"`
	// Idem is the idempotency table: stored response by request key.
	Idem map[string]json.RawMessage `json:"idem,omitempty"`
}

const (
	checkpointName = "checkpoint.json"
	checkpointPrev = "checkpoint.json.prev"
)

// writeCheckpoint atomically persists a checkpoint under dir: the new file
// is written to a temp name, synced, and renamed into place, with the
// previous checkpoint kept as a fallback for recovery. The directory is
// synced last, so the renames themselves survive a power loss.
func writeCheckpoint(dir string, cp Checkpoint) error {
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)
	blob := make([]byte, 0, len(envelopeSHA)+2*sha256.Size+len(envelopePayload)+len(payload)+len(envelopeEnd))
	blob = append(blob, envelopeSHA...)
	blob = hex.AppendEncode(blob, sum[:])
	blob = append(blob, envelopePayload...)
	blob = append(blob, payload...)
	blob = append(blob, envelopeEnd...)
	path := filepath.Join(dir, checkpointName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: creating checkpoint: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		_ = f.Close()
		return fmt.Errorf("serve: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("serve: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: closing checkpoint: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, filepath.Join(dir, checkpointPrev)); err != nil {
			return fmt.Errorf("serve: rotating checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: installing checkpoint: %w", err)
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("serve: syncing state dir: %w", err)
	}
	return nil
}

// loadCheckpoint returns the newest intact checkpoint under dir, or ok
// false when none exists (or all are corrupt — recovery then replays the
// journal from the start).
func loadCheckpoint(dir string) (Checkpoint, bool) {
	for _, name := range []string{checkpointName, checkpointPrev} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		if cp, ok := decodeCheckpoint(blob); ok {
			return cp, true
		}
	}
	return Checkpoint{}, false
}

// decodeCheckpoint verifies and decodes one checkpoint file. The envelope
// writeCheckpoint emits is taken apart in place, so the payload is decoded
// once; any other envelope, or one that fails there, gets the generic
// decode, which judges every file as it always has.
func decodeCheckpoint(blob []byte) (Checkpoint, bool) {
	var cp Checkpoint
	if sum, payload, ok := splitEnvelope(blob); ok {
		var want [2 * sha256.Size]byte
		digest := sha256.Sum256(payload)
		hex.Encode(want[:], digest[:])
		if bytes.Equal(sum, want[:]) && json.Unmarshal(payload, &cp) == nil {
			return cp, true
		}
		cp = Checkpoint{}
	}
	var env checkpointFile
	if err := json.Unmarshal(blob, &env); err != nil {
		return cp, false
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return cp, false
	}
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return Checkpoint{}, false
	}
	return cp, true
}

// splitEnvelope returns the hex digest and the payload bytes of an
// envelope in exactly the layout writeCheckpoint emits, or false. A
// payload with surrounding whitespace is refused: the generic decode
// would digest it trimmed.
func splitEnvelope(blob []byte) (sum, payload []byte, ok bool) {
	rest, ok := bytes.CutPrefix(blob, []byte(envelopeSHA))
	if !ok || len(rest) < 2*sha256.Size {
		return nil, nil, false
	}
	sum, rest = rest[:2*sha256.Size], rest[2*sha256.Size:]
	if rest, ok = bytes.CutPrefix(rest, []byte(envelopePayload)); !ok {
		return nil, nil, false
	}
	if payload, ok = bytes.CutSuffix(rest, []byte(envelopeEnd)); !ok || len(payload) == 0 ||
		isSpace(payload[0]) || isSpace(payload[len(payload)-1]) {
		return nil, nil, false
	}
	return sum, payload, true
}
