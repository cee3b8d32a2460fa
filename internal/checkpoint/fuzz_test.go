package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// FuzzDecode enforces the decoder's totality contract: arbitrary bytes
// produce either a typed error or a valid snapshot — never a panic, and
// never a "valid" result that does not survive a re-encode. Each input is
// decoded twice: as a whole file, and as a binary payload framed with a
// correct header and checksum, so mutations reach the payload decoder
// instead of stopping at the checksum. The seed corpus covers a genuine
// encoding in all three envelopes, every framing field damaged one at a time,
// pathological length claims and the malformed-payload table.
func FuzzDecode(f *testing.F) {
	snap := core.NewWorld(testCfg()).Snapshot()
	valid := Encode(snap)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))

	badVersion := bytes.Clone(valid)
	badVersion[7] = 0xFF
	f.Add(badVersion)

	// A file from the "next" build: envelope one version ahead, correctly
	// framed and checksummed — must fail typed, not crash.
	f.Add(frame(envelopeVersion+1, valid[headerSize:len(valid)-8]))
	// Intact framing around a payload declaring a snapshot schema newer
	// than this build reads.
	newer := *snap
	newer.Version = 99
	f.Add(frame(envelopeVersion, appendPayload(nil, &newer)))

	// A framing that claims a payload far larger than the file.
	huge := bytes.Clone(valid[:headerSize])
	binary.LittleEndian.PutUint64(huge[8:16], 1<<60)
	f.Add(huge)

	// Valid framing and checksum around a payload of the wrong layout: the
	// checksum passes, the payload decode must still fail cleanly.
	f.Add(frame(envelopeVersion, []byte("}{!~")))

	// The same payload behind envelope 2's FNV-1a trailer, so mutations
	// keep reaching that checksum branch.
	f.Add(frame(legacyFNVVersion, valid[headerSize:len(valid)-8]))

	// The same snapshot as envelope-1 JSON, and JSON that is not a snapshot.
	legacy, err := referenceEncode(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(frame(legacyJSONVersion, []byte("}{!~")))

	// Bare payloads, for the framed pass: the genuine one and the
	// malformed table.
	f.Add(valid[headerSize : len(valid)-8])
	malformed := malformedPayloads(f)
	names := make([]string, 0, len(malformed))
	for name := range malformed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(malformed[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, frame(envelopeVersion, data))
	})
}

// checkDecode decodes data and, when that succeeds, checks the snapshot
// survives Encode and Decode unchanged.
func checkDecode(t *testing.T, data []byte) {
	snap, err := Decode(data)
	if err != nil {
		if snap != nil {
			t.Fatal("Decode returned both a snapshot and an error")
		}
		return
	}
	if snap == nil {
		t.Fatal("Decode returned neither a snapshot nor an error")
	}
	back, err := Decode(Encode(snap))
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	if !sameBits(reflect.ValueOf(back), reflect.ValueOf(snap)) {
		t.Fatal("Decode(Encode(snap)) differs from snap")
	}
}

// sameBits is reflect.DeepEqual for the snapshot's kinds, except that
// floats compare by their bits: a payload may carry a NaN, which the codec
// keeps bit-exact but DeepEqual never finds equal to itself.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
