package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/core"
)

// The binary payload (envelopes 2 and 3): a positional encoding of
// core.StudySnapshot, driven by reflect through codecs compiled once, at
// package init, from the snapshot's type. Values are written in field
// declaration order with no names or tags:
//
//	signed integer    zigzag varint
//	unsigned integer  uvarint
//	float64           8 bytes, little-endian IEEE bits (bit-exact)
//	bool              1 byte, 0 or 1
//	string, slice     uvarint len+1, then the bytes or elements; 0 is a
//	                  nil slice, so nil and empty stay distinct
//	pointer           1 tag byte (0 nil, 1 present), then the pointee
//	array             its elements
//	struct            its fields
//
// Any other kind (a map, an interface, a func, a float32...) panics at
// init, so a field the codec cannot carry fails every test at once rather
// than one study's resume. A positional format misdecodes silently if a
// field is reordered, so the payload opens with layoutDigest, a hash of
// every field's name and kind in declaration order. The Version field
// leads the snapshot, so a reader facing another layout can still tell a
// newer build's file (ErrSnapshotVersion) from damage (ErrCorrupt).

// typeCodec encodes and decodes one type. dec writes into a settable,
// zero-valued v; min is the fewest bytes any value of the type encodes
// to, which bounds a claimed slice length before it is allocated.
type typeCodec struct {
	enc    func(b []byte, v reflect.Value) []byte
	dec    func(d *decoder, v reflect.Value)
	min    int
	layout string
}

var (
	snapshotCodec = compileCodec(reflect.TypeFor[core.StudySnapshot](), map[reflect.Type]bool{})
	// layoutDigest is the FNV-1a hash of snapshotCodec.layout.
	layoutDigest = digestOf(snapshotCodec.layout)
)

func init() {
	if f := reflect.TypeFor[core.StudySnapshot]().Field(0); f.Name != "Version" || f.Type.Kind() != reflect.Int {
		panic("checkpoint: core.StudySnapshot must lead with its int Version field")
	}
}

func digestOf(layout string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(layout))
	return h.Sum64()
}

// compileCodec builds t's codec. onPath holds the struct types being
// compiled above t: a recursive type would have an infinite layout.
func compileCodec(t reflect.Type, onPath map[reflect.Type]bool) *typeCodec {
	switch t.Kind() {
	case reflect.Bool:
		return &typeCodec{enc: encBool, dec: decBool, min: 1, layout: "bool"}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &typeCodec{enc: encInt, dec: decInt, min: 1, layout: t.Kind().String()}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &typeCodec{enc: encUint, dec: decUint, min: 1, layout: t.Kind().String()}
	case reflect.Float64:
		return &typeCodec{enc: encFloat, dec: decFloat, min: 8, layout: "float64"}
	case reflect.String:
		return &typeCodec{enc: encString, dec: decString, min: 1, layout: "string"}
	case reflect.Slice:
		return compileSlice(t, compileCodec(t.Elem(), onPath))
	case reflect.Array:
		return compileArray(t, compileCodec(t.Elem(), onPath))
	case reflect.Pointer:
		return compilePointer(t, compileCodec(t.Elem(), onPath))
	case reflect.Struct:
		if onPath[t] {
			panic(fmt.Sprintf("checkpoint: recursive type %v in the snapshot", t))
		}
		onPath[t] = true
		defer delete(onPath, t)
		return compileStruct(t, onPath)
	}
	panic(fmt.Sprintf("checkpoint: snapshot type %v has kind %v, which the payload codec cannot carry", t, t.Kind()))
}

func compileSlice(t reflect.Type, elem *typeCodec) *typeCodec {
	if elem.min == 0 {
		panic(fmt.Sprintf("checkpoint: %v has elements that encode to no bytes, so its length is unbounded", t))
	}
	c := &typeCodec{min: 1, layout: "[]" + elem.layout}
	c.enc = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		n, ok := d.length(elem.min)
		if !ok {
			return // nil
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			elem.dec(d, s.Index(i))
		}
		v.Set(s)
	}
	return c
}

func compileArray(t reflect.Type, elem *typeCodec) *typeCodec {
	n := t.Len()
	c := &typeCodec{min: n * elem.min, layout: "[" + strconv.Itoa(n) + "]" + elem.layout}
	c.enc = func(b []byte, v reflect.Value) []byte {
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		for i := 0; i < n; i++ {
			elem.dec(d, v.Index(i))
		}
	}
	return c
}

func compilePointer(t reflect.Type, elem *typeCodec) *typeCodec {
	c := &typeCodec{min: 1, layout: "*" + elem.layout}
	c.enc = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		return elem.enc(append(b, 1), v.Elem())
	}
	c.dec = func(d *decoder, v reflect.Value) {
		switch d.byte() {
		case 0:
		case 1:
			p := reflect.New(t.Elem())
			elem.dec(d, p.Elem())
			v.Set(p)
		default:
			d.fail("pointer tag is neither 0 nor 1")
		}
	}
	return c
}

func compileStruct(t reflect.Type, onPath map[reflect.Type]bool) *typeCodec {
	fields := make([]*typeCodec, t.NumField())
	var layout strings.Builder
	layout.WriteString("{")
	total := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("checkpoint: %v.%s is unexported, so the payload codec cannot restore it", t, f.Name))
		}
		fields[i] = compileCodec(f.Type, onPath)
		total += fields[i].min
		layout.WriteString(f.Name + " " + fields[i].layout + ";")
	}
	layout.WriteString("}")
	c := &typeCodec{min: total, layout: layout.String()}
	c.enc = func(b []byte, v reflect.Value) []byte {
		for i, f := range fields {
			b = f.enc(b, v.Field(i))
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		for i, f := range fields {
			f.dec(d, v.Field(i))
		}
	}
	return c
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))+1), s...)
}

func decBool(d *decoder, v reflect.Value) {
	switch d.byte() {
	case 0:
	case 1:
		v.SetBool(true)
	default:
		d.fail("bool byte is neither 0 nor 1")
	}
}

func decInt(d *decoder, v reflect.Value) {
	x, n := binary.Varint(d.buf)
	if n <= 0 || v.OverflowInt(x) {
		d.fail("bad or overflowing varint")
	}
	d.buf = d.buf[n:]
	v.SetInt(x)
}

func decUint(d *decoder, v reflect.Value) {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 || v.OverflowUint(x) {
		d.fail("bad or overflowing uvarint")
	}
	d.buf = d.buf[n:]
	v.SetUint(x)
}

func decFloat(d *decoder, v reflect.Value) {
	if len(d.buf) < 8 {
		d.fail("float64 cut short")
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf)))
	d.buf = d.buf[8:]
}

func decString(d *decoder, v reflect.Value) {
	n, ok := d.length(1)
	if !ok {
		d.fail("nil string")
	}
	v.SetString(string(d.buf[:n]))
	d.buf = d.buf[n:]
}

// decoder consumes a payload front to back. A malformed payload panics
// with a corruptPayload, which decodePayload turns into ErrCorrupt.
type decoder struct {
	buf []byte
}

type corruptPayload string

func (d *decoder) fail(why string) {
	panic(corruptPayload(fmt.Sprintf("%s with %d bytes left", why, len(d.buf))))
}

func (d *decoder) byte() byte {
	if len(d.buf) == 0 {
		d.fail("payload cut short")
	}
	c := d.buf[0]
	d.buf = d.buf[1:]
	return c
}

// length reads a len+1 uvarint. ok is false for 0 (nil). A length of more
// elements than the remaining bytes could hold at elemMin bytes each
// fails, so no claimed length allocates more than the payload could fill.
func (d *decoder) length(elemMin int) (n int, ok bool) {
	x, k := binary.Uvarint(d.buf)
	if k <= 0 {
		d.fail("bad length uvarint")
	}
	d.buf = d.buf[k:]
	if x == 0 {
		return 0, false
	}
	if x-1 > uint64(len(d.buf)/elemMin) {
		d.fail(fmt.Sprintf("length %d of %d-byte elements", x-1, elemMin))
	}
	return int(x - 1), true
}

// appendPayload appends the layout digest and snap's encoding to b.
func appendPayload(b []byte, snap *core.StudySnapshot) []byte {
	b = binary.LittleEndian.AppendUint64(b, layoutDigest)
	return snapshotCodec.enc(b, reflect.ValueOf(snap).Elem())
}

// decodePayload decodes a binary payload. Decoding is total: any
// input yields a snapshot or an error wrapping ErrCorrupt or
// ErrSnapshotVersion, never a panic or an allocation the input cannot
// account for.
func decodePayload(p []byte) (snap *core.StudySnapshot, err error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: payload shorter than its layout digest", ErrCorrupt)
	}
	if digest := binary.LittleEndian.Uint64(p); digest != layoutDigest {
		// Another layout. Version leads every layout, so a newer build's
		// file is still told apart from damage.
		if v, n := binary.Varint(p[8:]); n > 0 && v > core.SnapshotVersion {
			return nil, fmt.Errorf("%w: payload version %d, this build reads <= %d", ErrSnapshotVersion, v, core.SnapshotVersion)
		}
		return nil, fmt.Errorf("%w: layout digest %016x, this build writes %016x", ErrCorrupt, digest, layoutDigest)
	}
	defer func() {
		if r := recover(); r != nil {
			why, ok := r.(corruptPayload)
			if !ok {
				panic(r)
			}
			snap, err = nil, fmt.Errorf("%w: %s", ErrCorrupt, string(why))
		}
	}()
	d := decoder{buf: p[8:]}
	snap = new(core.StudySnapshot)
	snapshotCodec.dec(&d, reflect.ValueOf(snap).Elem())
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return snap, nil
}
