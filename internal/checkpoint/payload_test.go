package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/metrics"
)

// The payload layout pinned beside the snapshot version it belongs to.
// Reordering, adding, removing, renaming or retyping a field of
// core.StudySnapshot or any state type it reaches moves layoutDigest; a
// file of the old layout then fails to decode, so the change must come
// with a core.SnapshotVersion bump and both constants re-pinned here.
// The envelope version is pinned beside them: it names the framing every
// existing file carries, so moving it is a format change of its own.
const (
	pinnedSnapshotVersion = 2
	pinnedLayoutDigest    = 0x99b0960e39507e2c
	pinnedEnvelopeVersion = 3
)

func TestPayloadLayoutPinned(t *testing.T) {
	if core.SnapshotVersion != pinnedSnapshotVersion || layoutDigest != pinnedLayoutDigest {
		t.Fatalf("SnapshotVersion %d has layout digest %#016x; pinned are version %d and %#016x. "+
			"A snapshot field moved: bump core.SnapshotVersion if the version still reads %d, then re-pin both",
			core.SnapshotVersion, layoutDigest, pinnedSnapshotVersion, uint64(pinnedLayoutDigest), pinnedSnapshotVersion)
	}
	if envelopeVersion != pinnedEnvelopeVersion {
		t.Fatalf("envelopeVersion is %d, pinned is %d: a new framing must keep decoding version-%d files, then re-pin",
			envelopeVersion, pinnedEnvelopeVersion, pinnedEnvelopeVersion)
	}
	// The digest sees what a positional format depends on: field order,
	// names and kinds, also in a struct reached through a slice.
	type ab struct {
		A int
		B string
	}
	type ba struct {
		B string
		A int
	}
	type ac struct {
		A int
		C string
	}
	type aUint struct {
		A uint
		B string
	}
	type abc struct {
		A int
		B string
		C bool
	}
	type sliceAB struct{ S []ab }
	type sliceABC struct{ S []abc }
	layouts := map[string]reflect.Type{}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[ab](), reflect.TypeFor[ba](), reflect.TypeFor[ac](), reflect.TypeFor[aUint](),
		reflect.TypeFor[abc](), reflect.TypeFor[sliceAB](), reflect.TypeFor[sliceABC](),
	} {
		layout := compileCodec(typ, map[reflect.Type]bool{}).layout
		if prev, dup := layouts[layout]; dup {
			t.Errorf("%v and %v share the layout %s", prev, typ, layout)
		}
		layouts[layout] = typ
	}
}

// jsonRenames lists the fields of t, and of every type it reaches, whose
// json tag gives them a name other than their Go name, and the types
// that decode JSON themselves.
func jsonRenames(t reflect.Type) []string {
	unmarshalers := []reflect.Type{reflect.TypeFor[json.Unmarshaler](), reflect.TypeFor[encoding.TextUnmarshaler]()}
	var found []string
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, u := range unmarshalers {
			if reflect.PointerTo(t).Implements(u) {
				found = append(found, fmt.Sprintf("%v implements %v", t, u))
			}
		}
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != f.Name {
					found = append(found, fmt.Sprintf("%v.%s has json name %q", t, f.Name, name))
				}
				walk(f.Type)
			}
		}
	}
	walk(t)
	return found
}

// TestSnapshotJSONNamesAreFieldNames guards envelope-1 files, whose JSON
// payload decodes by Go field name. The layout digest ignores json tags,
// so a tag that renames a snapshot field, or a type that decodes JSON
// itself, would drop or misread state from those files while the digest
// stays pinned.
func TestSnapshotJSONNamesAreFieldNames(t *testing.T) {
	if found := jsonRenames(reflect.TypeFor[core.StudySnapshot]()); len(found) > 0 {
		t.Fatalf("envelope-1 checkpoints would no longer decode by field name:\n%s", strings.Join(found, "\n"))
	}
	type renamed struct {
		A int `json:"a"`
		B int `json:",omitempty"`
	}
	type nested struct{ S []*renamed }
	type hidden struct {
		C int `json:"-"`
	}
	type custom struct{ T time.Time }
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeFor[renamed](), 1},
		{reflect.TypeFor[nested](), 1},
		{reflect.TypeFor[hidden](), 1},
		{reflect.TypeFor[custom](), 2}, // time.Time decodes both JSON and text
	} {
		if found := jsonRenames(c.typ); len(found) != c.want {
			t.Errorf("%v: found %q, want %d findings", c.typ, found, c.want)
		}
	}
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(t testing.TB, a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	t.Fatal("encodings do not differ")
	return 0
}

// malformedPayloads are binary payloads with this build's layout digest,
// each malformed in one way the decoder must reject with ErrCorrupt. Each
// is located by encoding the zero snapshot beside one that differs in a
// single field, so no case depends on field offsets.
func malformedPayloads(t testing.TB) map[string][]byte {
	zero := appendPayload(nil, &core.StudySnapshot{})
	at := func(mutate func(*core.StudySnapshot)) ([]byte, int) {
		var s core.StudySnapshot
		mutate(&s)
		p := appendPayload(nil, &s)
		return p, firstDiff(t, zero, p)
	}
	with := func(p []byte, off int, b byte) []byte {
		p = bytes.Clone(p)
		p[off] = b
		return p
	}

	floats, off := at(func(s *core.StudySnapshot) { s.Dataset.ChurnNew = metrics.Series{1.5} })
	_, boolOff := at(func(s *core.StudySnapshot) { s.Dataset.FaultsEnabled = true })
	_, ptrOff := at(func(s *core.StudySnapshot) { s.Resilient = &crawler.ResilientState{} })
	if floats[off] != 2 {
		t.Fatalf("a one-element slice encodes its length as %d, want 2", floats[off])
	}
	// The slice claims more floats than the bytes left could hold: 1000,
	// and 2^62, which no allocation could satisfy.
	claim := func(n uint64) []byte {
		return append(binary.AppendUvarint(bytes.Clone(floats[:off]), n+1), floats[off+1:]...)
	}
	// Version, the first field, as 11 continuation bytes: past 64 bits.
	overflow := append(bytes.Clone(zero[:8]), bytes.Repeat([]byte{0xFF}, 11)...)
	overflow = append(overflow, zero[9:]...)
	return map[string][]byte{
		"length-past-end":  claim(1000),
		"length-huge":      claim(1 << 62),
		"bool-byte-2":      with(zero, boolOff, 2),
		"pointer-tag-2":    with(zero, ptrOff, 2),
		"varint-overflow":  overflow,
		"float-cut-short":  floats[:off+1+4],
		"trailing-byte":    append(bytes.Clone(zero), 0),
		"no-layout-digest": zero[:7],
	}
}

// TestDecodeRejectsMalformedPayload: intact framing and checksum do not
// make a payload decodable. The zero snapshot's payload, which the cases
// are cut from, decodes; each malformed payload yields ErrCorrupt.
func TestDecodeRejectsMalformedPayload(t *testing.T) {
	if _, err := Decode(frame(envelopeVersion, appendPayload(nil, &core.StudySnapshot{}))); err != nil {
		t.Fatalf("the zero snapshot's payload does not decode: %v", err)
	}
	for name, p := range malformedPayloads(t) {
		t.Run(name, func(t *testing.T) {
			snap, err := Decode(frame(envelopeVersion, p))
			if !errors.Is(err, ErrCorrupt) || snap != nil {
				t.Fatalf("got (%v, %v), want ErrCorrupt", snap != nil, err)
			}
		})
	}
}

// BenchmarkEncode measures a Manager save's encode, whose buffer is sized
// from the previous save.
func BenchmarkEncode(b *testing.B) {
	snap := snapshotAfter(b, 3)
	last := len(encode(snap, 0))
	b.SetBytes(int64(last))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = len(encode(snap, last+last/8))
	}
}

func BenchmarkDecode(b *testing.B) {
	data := encode(snapshotAfter(b, 3), 0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
