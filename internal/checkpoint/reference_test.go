package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/core"
)

// referenceEncode is the envelope-1 writer, which this package used before
// the binary payload: json.Marshal the snapshot, then frame the payload
// between the header and the checksum.
func referenceEncode(snap *core.StudySnapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, headerSize+len(payload)+8)
	buf = append(buf, magic[:]...)
	buf = append(buf, legacyJSONVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64()), nil
}

// TestDecodeLegacyJSON: checkpoints written as envelope-1 JSON still load,
// into the snapshot that wrote them, for real study snapshots and for one
// with strings Marshal escapes (<, >, & and U+2028), which study snapshots
// never contain.
func TestDecodeLegacyJSON(t *testing.T) {
	escaped := *snapshotAfter(t, 3)
	escaped.NextDay++
	escaped.Attribution = append([]core.AttributionEntry{{Domain: "<a&b>", Name: "x\u2028y"}}, escaped.Attribution...)
	for i, snap := range []*core.StudySnapshot{snapshotAfter(t, 0), snapshotAfter(t, 2), snapshotAfter(t, 3), &escaped} {
		data, err := referenceEncode(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("snapshot %d: the JSON checkpoint decoded to a different snapshot", i)
		}
	}
}
