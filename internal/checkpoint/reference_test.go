package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// referenceEncode is the straightforward framing Encode must reproduce
// byte for byte: json.Marshal the snapshot, then copy the payload into
// the envelope between the header and the checksum.
func referenceEncode(snap *core.StudySnapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, headerSize+len(payload)+8)
	buf = append(buf, magic[:]...)
	buf = append(buf, envelopeVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64()), nil
}

// TestEncodeMatchesReference: Encode writes the reference bytes for real
// study snapshots, and a Manager's files hold the same bytes. The last
// snapshot carries strings that Marshal escapes (<, >, & and U+2028),
// which study snapshots never contain, so the Encoder's escaping is
// compared too.
func TestEncodeMatchesReference(t *testing.T) {
	m, err := NewManager(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	escaped := *snapshotAfter(t, 3)
	escaped.NextDay++
	escaped.Attribution = append([]core.AttributionEntry{{Domain: "<a&b>", Name: "x\u2028y"}}, escaped.Attribution...)
	for i, snap := range []*core.StudySnapshot{snapshotAfter(t, 0), snapshotAfter(t, 2), snapshotAfter(t, 3), &escaped} {
		want, err := referenceEncode(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: Encode differs from the reference (%d vs %d bytes)", i, len(got), len(want))
		}
		if err := m.Save(snap); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(m.Dir(), fileFor(int(snap.NextDay))))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, want) {
			t.Fatalf("snapshot %d: saved file differs from the reference", i)
		}
	}
}
