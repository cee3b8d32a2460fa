// Package checkpoint persists day-boundary snapshots of a running study so
// a killed process can resume from the last good one and converge to the
// bit-identical complete-run fingerprint.
//
// On-disk format (all fixed-width integers little-endian):
//
//	offset  size  field
//	0       7     magic "SSCKPT\x00"
//	7       1     envelope version (currently 3)
//	8       8     payload length N
//	16      N     payload:
//	16      8       layout digest of core.StudySnapshot (layoutDigest)
//	24      N-8     the snapshot, positional binary (payload.go)
//	16+N    8     checksum over bytes [0, 16+N): CRC-32C, zero-extended
//
// Older envelopes have the same framing and a 64-bit FNV-1a checksum,
// which Decode still checks for them:
//
//	version  payload                  checksum
//	1        JSON (json.Unmarshal)    FNV-1a 64
//	2        positional binary        FNV-1a 64
//	3        positional binary        CRC-32C (Castagnoli)
//
// Encode writes only envelope 3. Every save and load hashes the whole
// file, and CRC-32C runs on the CPU's crc32 instruction where there is
// one: over 2.79 MB it took 0.17 ms where FNV-1a, a multiply per byte,
// took 4.3 ms (2-vCPU x86-64 host with SSE4.2).
//
// The checksum covers the header too, so a truncated, torn or bit-flipped
// file — the torn-write window of a crash mid-write — is detected rather
// than loaded. Decoding is total: arbitrary input yields a typed error or
// a structurally valid snapshot, never a panic (FuzzDecode enforces this);
// semantic validity against a particular study is the restorer's job
// (core.RestoreSnapshot checks the config hash and recomputes the dataset
// digest).
//
// Writes are atomic per the classic protocol: write to a temp file, fsync
// it, rename over the final name, fsync the directory. A crash at any
// point leaves either the previous snapshot or the complete new one — a
// property the crash-injection tests (via faults.DiskPlan kill points)
// exercise at every step.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"repro/internal/core"
)

// envelopeVersion is the on-disk framing version this build writes; 3
// frames the binary payload behind a CRC-32C. core.SnapshotVersion tracks
// the snapshot's fields separately and is carried inside the payload.
const envelopeVersion = 3

// Older envelopes Decode still reads: a JSON payload, and the binary
// payload, both behind an FNV-1a checksum.
const (
	legacyJSONVersion = 1
	legacyFNVVersion  = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the trailer of an envelope of the given version over body
// (header and payload).
func checksum(version byte, body []byte) uint64 {
	if version == envelopeVersion {
		return uint64(crc32.Checksum(body, castagnoli))
	}
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

var magic = [7]byte{'S', 'S', 'C', 'K', 'P', 'T', 0}

// headerSize is magic + version byte + payload length.
const headerSize = len(magic) + 1 + 8

// Typed decode errors. Every way a file can fail to decode maps onto one
// of these (possibly wrapped with detail), so callers can distinguish
// corruption classes in telemetry and tests.
var (
	// ErrTruncated: the file is shorter than its framing promises.
	ErrTruncated = errors.New("checkpoint: file truncated")
	// ErrBadMagic: the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrVersion: the envelope version is unknown to this build.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrChecksum: the trailing checksum does not match the content.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrCorrupt: the framing is intact but the payload does not decode.
	ErrCorrupt = errors.New("checkpoint: corrupt payload")
	// ErrSnapshotVersion: the payload decodes but declares a snapshot
	// schema newer than this build understands. Distinct from ErrCorrupt —
	// the file is intact, the reader is just too old for it.
	ErrSnapshotVersion = errors.New("checkpoint: snapshot schema too new")
)

// Encode serializes a snapshot into the framed, checksummed form.
func Encode(snap *core.StudySnapshot) []byte {
	return encode(snap, 0)
}

// encode frames snap's payload in a buffer of capacity capHint (or as
// much as the payload needs): the payload is appended after the header,
// which is filled in once its length is known.
func encode(snap *core.StudySnapshot, capHint int) []byte {
	data := appendPayload(make([]byte, headerSize, max(capHint, headerSize+8)), snap)
	copy(data, magic[:])
	data[len(magic)] = envelopeVersion
	binary.LittleEndian.PutUint64(data[len(magic)+1:headerSize], uint64(len(data)-headerSize))
	return binary.LittleEndian.AppendUint64(data, checksum(envelopeVersion, data))
}

// Decode parses a framed snapshot. It is safe on arbitrary input: every
// length is checked before use, the payload length must account for the
// file size exactly, and the checksum must match before the payload is
// even looked at.
func Decode(data []byte) (*core.StudySnapshot, error) {
	if len(data) < headerSize+8 {
		return nil, ErrTruncated
	}
	if [7]byte(data[:7]) != magic {
		return nil, ErrBadMagic
	}
	version := data[7]
	if version != envelopeVersion && version != legacyFNVVersion && version != legacyJSONVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize-8) {
		return nil, fmt.Errorf("%w: payload length %d in a %d-byte file", ErrTruncated, n, len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if checksum(version, body) != sum {
		return nil, ErrChecksum
	}
	decodeFn := decodePayload
	if version == legacyJSONVersion {
		decodeFn = decodeJSON
	}
	snap, err := decodeFn(data[headerSize : len(data)-8])
	if err != nil {
		return nil, err
	}
	// Forward compatibility: a payload written by a newer build is rejected
	// with a typed error, never misread. Older payloads (including
	// snapshot-version-1 JSON predating the field, which decodes as 0)
	// pass.
	if snap.Version > core.SnapshotVersion {
		return nil, fmt.Errorf("%w: payload version %d, this build reads <= %d", ErrSnapshotVersion, snap.Version, core.SnapshotVersion)
	}
	return snap, nil
}

// decodeJSON decodes an envelope-1 payload.
func decodeJSON(p []byte) (*core.StudySnapshot, error) {
	snap := new(core.StudySnapshot)
	if err := json.Unmarshal(p, snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}
