package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/lint/load"
)

// APISchemaFile is the golden checked in at the module root that pins
// the /v1 wire contract. It is regenerated only via
// `go run ./cmd/sslint -write-schema`.
const APISchemaFile = "api.schema.json"

// TypeSchema is the JSON shape of one struct: wire field name (the json
// tag, or the Go name where none is set) to a type descriptor. Descriptors
// are structural — "string", "int64", "[]float64", "*bool",
// "map[string]int", "object:<pkg.Type>" for a named struct pinned under
// its own key, "struct{a:int;b:string}" for an anonymous one — with
// ",omitempty" appended when the tag carries it, so a tag-option change is
// a shape change too.
type TypeSchema map[string]string

// APIContract is the extracted /v1 wire contract: the route table plus
// the shape of every request/response type reachable from a handler.
type APIContract struct {
	Routes []string              `json:"routes"`
	Types  map[string]TypeSchema `json:"types"`
}

// WriteSchemaFile serializes a schema golden deterministically (JSON maps
// marshal with sorted keys) with a trailing newline.
func WriteSchemaFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSchemaFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// resolveGolden makes a scope-configured golden path absolute: relative
// names resolve against the analyzed module's root, found by walking up
// from the file holding pos to the nearest go.mod. Fixture trees have no
// go.mod, so fixture tests pass absolute paths.
func resolveGolden(fset *token.FileSet, pos token.Pos, rel string) (string, error) {
	if filepath.IsAbs(rel) {
		return rel, nil
	}
	dir := filepath.Dir(fset.Position(pos).Filename)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, rel), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s to resolve %s", dir, rel)
		}
		dir = parent
	}
}

// schemaExtractor walks types.Type graphs into TypeSchema maps, recording
// positions so drift findings anchor at the drifted declaration.
type schemaExtractor struct {
	// shapeFor returns the wire shape of a named type with a custom
	// MarshalJSON, when one is known (fact-imported by the analyzer,
	// AST-extracted by the -write-schema builder). May be nil.
	shapeFor func(obj *types.TypeName) (TypeSchema, bool)

	types    map[string]TypeSchema
	typePos  map[string]token.Pos
	fieldPos map[string]map[string]token.Pos
	visiting map[string]bool
}

func newSchemaExtractor(shapeFor func(*types.TypeName) (TypeSchema, bool)) *schemaExtractor {
	return &schemaExtractor{
		shapeFor: shapeFor,
		types:    make(map[string]TypeSchema),
		typePos:  make(map[string]token.Pos),
		fieldPos: make(map[string]map[string]token.Pos),
		visiting: make(map[string]bool),
	}
}

// typeKey names a type across packages: "<import path>.<name>".
func typeKey(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// addRoot registers a top-level encoded type. Pointers unwrap (a decode
// target *T puts T on the wire); named structs pin under their own key;
// anonymous structs pin under a synthesized "<pkg>.{field,field}" key so a
// handler's inline response literal is still a tracked contract.
func (x *schemaExtractor) addRoot(t types.Type, pkgPath string, pos token.Pos) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	switch tt := t.(type) {
	case *types.Named:
		x.descriptor(t)
	case *types.Struct:
		key := pkgPath + "." + anonKey(tt)
		if _, ok := x.types[key]; ok {
			return
		}
		x.typePos[key] = pos
		x.types[key] = x.structSchema(key, tt)
	}
}

// anonKey derives a stable name for an anonymous struct from its sorted
// wire field names.
func anonKey(st *types.Struct) string {
	var names []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name, _, skip := jsonName(f, st.Tag(i))
		if skip {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// descriptor renders one type structurally, registering every named struct
// it reaches under its own key.
func (x *schemaExtractor) descriptor(t types.Type) string {
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() == nil { // error, comparable, ...
			return obj.Name()
		}
		key := typeKey(obj)
		if x.visiting[key] {
			return "object:" + key
		}
		if _, done := x.types[key]; done {
			return "object:" + key
		}
		if x.shapeFor != nil {
			if shape, ok := x.shapeFor(obj); ok {
				x.types[key] = shape
				x.typePos[key] = obj.Pos()
				return "object:" + key
			}
		}
		if hasCustomMarshaler(tt) {
			// The struct fields would lie about the wire shape and no
			// extracted shape is known: pin an opaque marker so a
			// marshaler appearing or vanishing is still a diff.
			return "custom:" + key
		}
		switch under := tt.Underlying().(type) {
		case *types.Struct:
			x.visiting[key] = true
			x.typePos[key] = obj.Pos()
			x.types[key] = x.structSchema(key, under)
			delete(x.visiting, key)
			return "object:" + key
		default:
			// Named non-struct (simclock.Day, metrics.Series): the wire
			// shape is the underlying type's.
			return x.descriptor(under)
		}
	case *types.Basic:
		return tt.String()
	case *types.Pointer:
		return "*" + x.descriptor(tt.Elem())
	case *types.Slice:
		if b, ok := tt.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
			return "base64"
		}
		return "[]" + x.descriptor(tt.Elem())
	case *types.Array:
		return fmt.Sprintf("[%d]%s", tt.Len(), x.descriptor(tt.Elem()))
	case *types.Map:
		return "map[" + x.descriptor(tt.Key()) + "]" + x.descriptor(tt.Elem())
	case *types.Struct:
		shape := x.structSchema("", tt)
		names := make([]string, 0, len(shape))
		for name := range shape {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, name+":"+shape[name])
		}
		return "struct{" + strings.Join(parts, ";") + "}"
	case *types.Interface:
		return "any"
	default:
		return t.String()
	}
}

// structSchema flattens one struct into wire fields, following
// encoding/json's rules: unexported and `json:"-"` fields are invisible,
// untagged embedded structs promote their fields, tag options other than
// the name collapse to the one wire-visible one (omitempty).
func (x *schemaExtractor) structSchema(key string, st *types.Struct) TypeSchema {
	schema := make(TypeSchema)
	if key != "" && x.fieldPos[key] == nil {
		x.fieldPos[key] = make(map[string]token.Pos)
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		tag := st.Tag(i)
		if f.Embedded() && !f.Exported() {
			continue
		}
		if f.Embedded() && reflect.StructTag(tag).Get("json") == "" {
			// Untagged embedded struct: promote its fields.
			ft := f.Type()
			if p, ok := ft.(*types.Pointer); ok {
				ft = p.Elem()
			}
			if es, ok := ft.Underlying().(*types.Struct); ok {
				for name, desc := range x.structSchema("", es) {
					if _, shadowed := schema[name]; !shadowed {
						schema[name] = desc
						if key != "" {
							x.fieldPos[key][name] = f.Pos()
						}
					}
				}
				continue
			}
		}
		name, opts, skip := jsonName(f, tag)
		if skip {
			continue
		}
		desc := x.descriptor(f.Type())
		if opts != "" {
			desc += "," + opts
		}
		schema[name] = desc
		if key != "" {
			x.fieldPos[key][name] = f.Pos()
		}
	}
	return schema
}

// jsonName resolves a field's wire name and the wire-visible tag options.
func jsonName(f *types.Var, tag string) (name, opts string, skip bool) {
	if !f.Exported() {
		return "", "", true
	}
	jt := reflect.StructTag(tag).Get("json")
	if jt == "-" {
		return "", "", true
	}
	name = f.Name()
	if jt != "" {
		parts := strings.Split(jt, ",")
		if parts[0] != "" {
			name = parts[0]
		}
		for _, o := range parts[1:] {
			if o == "omitempty" {
				opts = "omitempty"
			}
		}
	}
	return name, opts, false
}

// hasCustomMarshaler reports whether T or *T declares MarshalJSON.
func hasCustomMarshaler(t types.Type) bool {
	for _, recv := range []types.Type{t, types.NewPointer(t)} {
		if obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, "MarshalJSON"); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

// schemaDiff is one divergence between a golden and the extracted schema.
type schemaDiff struct {
	kind    string // "type-removed", "type-added", "field-removed", "field-added", "field-changed"
	typeKey string
	field   string
	old     string
	new     string
}

// diffTypes compares golden against current, deterministically ordered.
func diffTypes(golden, current map[string]TypeSchema) []schemaDiff {
	var diffs []schemaDiff
	for _, key := range sortedKeys(golden) {
		cur, ok := current[key]
		if !ok {
			diffs = append(diffs, schemaDiff{kind: "type-removed", typeKey: key})
			continue
		}
		old := golden[key]
		for _, field := range sortedKeys(old) {
			now, ok := cur[field]
			switch {
			case !ok:
				diffs = append(diffs, schemaDiff{kind: "field-removed", typeKey: key, field: field, old: old[field]})
			case now != old[field]:
				diffs = append(diffs, schemaDiff{kind: "field-changed", typeKey: key, field: field, old: old[field], new: now})
			}
		}
		for _, field := range sortedKeys(cur) {
			if _, ok := old[field]; !ok {
				diffs = append(diffs, schemaDiff{kind: "field-added", typeKey: key, field: field, new: cur[field]})
			}
		}
	}
	for _, key := range sortedKeys(current) {
		if _, ok := golden[key]; !ok {
			diffs = append(diffs, schemaDiff{kind: "type-added", typeKey: key})
		}
	}
	return diffs
}

// BuildAPIContract extracts the wire contract from pkgs (a full module
// load) exactly as wireschema does, for `cmd/sslint -write-schema`:
// marshal shapes are gathered across every package first, then the
// contract is read from the scoped API package (the one registering mux
// routes). It returns nil when that package is absent.
func BuildAPIContract(pkgs []*load.Package, scope *Scope) *APIContract {
	shapes := make(map[*types.TypeName]TypeSchema)
	for _, p := range pkgs {
		ps := pkgSyntax{fset: p.Fset, files: p.Files, pkg: p.Types, info: p.Info}
		for obj, shape := range extractMarshalShapes(ps) {
			shapes[obj] = shape
		}
	}
	shapeFor := func(obj *types.TypeName) (TypeSchema, bool) {
		shape, ok := shapes[obj]
		return shape, ok
	}

	for _, p := range pkgs {
		if !scope.AppliesTo(WireSchema.Name, p.PkgPath) {
			continue
		}
		ps := pkgSyntax{fset: p.Fset, files: p.Files, pkg: p.Types, info: p.Info}
		if routes, _, _ := extractRoutes(ps); len(routes) > 0 {
			x := newSchemaExtractor(shapeFor)
			collectJSONRoots(ps, x)
			return &APIContract{Routes: routes, Types: x.types}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
