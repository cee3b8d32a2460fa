package jsmini

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Element is a DOM element created by a script (createElement) or targeted
// by it. Only the attributes cloaking detection cares about are modelled.
type Element struct {
	Tag      string
	Attrs    map[string]string
	Appended bool // true once passed to appendChild
}

// Page is the host environment a script runs against, and accumulates the
// script's observable effects.
type Page struct {
	// Inputs.
	URL      string // page URL (document.location)
	Referrer string // document.referrer
	// Effects.
	Redirect string     // destination of window.location assignment/replace
	Writes   []string   // arguments of document.write, in order
	Created  []*Element // elements created via document.createElement
	Cookies  []string   // values assigned to document.cookie
}

// AppendedElements returns the created elements that were attached to the
// document (the only ones a renderer lays out).
func (pg *Page) AppendedElements() []*Element {
	var out []*Element
	for _, e := range pg.Created {
		if e.Appended {
			out = append(out, e)
		}
	}
	return out
}

// ErrBudget is returned when a script exceeds its evaluation budget: too
// many steps, or too many bytes of built strings and arrays.
var ErrBudget = errors.New("jsmini: evaluation budget exceeded")

const (
	// stepBudget bounds the statements and expressions one Exec evaluates.
	stepBudget = 200000
	// byteBudget bounds the bytes one Exec builds: every string a script
	// constructs (concatenation, concat, join, replace, case mapping,
	// escaping, document.write, innerHTML) and every array slot it
	// creates is charged. Bench-preset studies charge at most about 17 KB
	// to one Exec, so only a string-doubling bomb comes near it.
	byteBudget = 1 << 20
	// slotBytes is the charge for one array slot: an interface value and
	// the string header it boxes.
	slotBytes = 32
)

// value is a runtime value: nil (undefined), string, float64, bool,
// []value (array), *Element, *object, or builtin.
type value interface{}

// object is a generic property bag with an optional kind tag that switches
// on host behaviour (document, window, location, style, navigator).
type object struct {
	kind  string
	props map[string]value
	elem  *Element // set for kind=="style" wrappers
}

// builtin is a host function.
type builtin func(in *interp, this value, args []value) (value, error)

// boundMethod pairs a receiver with a builtin, created on member access.
type boundMethod struct {
	this value
	fn   builtin
}

// closure is a user-defined function literal with no captured environment
// beyond the globals (sufficient for the cloaking corpus's IIFEs).
type closure struct {
	params []string
	body   []stmt
}

type interp struct {
	page  *Page
	vars  map[string]value
	steps int // evaluation steps left
	bytes int // bytes left to build; negative once the budget is spent
}

// Exec parses and executes src against page. Script effects (redirects,
// writes, created elements, cookies) are recorded on page. A nil error
// means the script ran to completion within both budgets.
func Exec(src string, page *Page) error {
	stmts, err := parse(src)
	if err != nil {
		return err
	}
	in := &interp{page: page, vars: map[string]value{}, steps: stepBudget, bytes: byteBudget}
	in.installGlobals()
	if err := in.run(stmts); err != nil {
		return err
	}
	if in.bytes < 0 {
		return ErrBudget
	}
	return nil
}

func (in *interp) run(stmts []stmt) error {
	for _, s := range stmts {
		if err := in.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) step() error {
	in.steps--
	if in.steps <= 0 || in.bytes < 0 {
		return ErrBudget
	}
	return nil
}

// charge books n bytes against the byte budget and reports whether they
// fit. An operation whose charge does not fit builds nothing; the next
// step (or the end of Exec) returns ErrBudget.
func (in *interp) charge(n int) bool {
	in.bytes -= n
	return in.bytes >= 0
}

// str is toString for a value the script keeps or builds on: an array's
// joined text is a new string, so it is charged.
func (in *interp) str(v value) string {
	s := toString(v)
	if _, ok := v.([]value); ok && !in.charge(len(s)) {
		return ""
	}
	return s
}

func (in *interp) exec(s stmt) error {
	if err := in.step(); err != nil {
		return err
	}
	switch s := s.(type) {
	case varStmt:
		var v value
		if s.init != nil {
			var err error
			v, err = in.eval(s.init)
			if err != nil {
				return err
			}
		}
		in.vars[s.name] = v
		return nil
	case exprStmt:
		_, err := in.eval(s.e)
		return err
	case assignStmt:
		return in.assign(s)
	case ifStmt:
		cond, err := in.eval(s.cond)
		if err != nil {
			return err
		}
		if truthy(cond) {
			return in.run(s.then)
		}
		return in.run(s.els)
	default:
		return fmt.Errorf("jsmini: unknown statement %T", s)
	}
}

func (in *interp) assign(s assignStmt) error {
	v, err := in.eval(s.value)
	if err != nil {
		return err
	}
	switch t := s.target.(type) {
	case identExpr:
		if s.op == "+=" {
			v = in.add(in.vars[t.name], v)
		}
		in.vars[t.name] = v
		return nil
	case memberExpr:
		obj, err := in.eval(t.obj)
		if err != nil {
			return err
		}
		if s.op == "+=" {
			cur, _ := in.member(obj, t.name)
			v = in.add(cur, v)
		}
		return in.setMember(obj, t.name, v)
	case indexExpr:
		obj, err := in.eval(t.obj)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.idx)
		if err != nil {
			return err
		}
		return in.setMember(obj, in.str(idx), v)
	}
	return fmt.Errorf("jsmini: bad assignment target %T", s.target)
}

// setMember applies host semantics for assignments to document/window
// properties, element attributes and style fields.
func (in *interp) setMember(obj value, name string, v value) error {
	switch o := obj.(type) {
	case *object:
		switch {
		case (o.kind == "window" || o.kind == "document") && name == "location":
			in.page.Redirect = in.str(v)
			return nil
		case o.kind == "location" && (name == "href" || name == "hash" || name == "search"):
			if name == "href" {
				in.page.Redirect = in.str(v)
			}
			return nil
		case o.kind == "document" && name == "cookie":
			in.page.Cookies = append(in.page.Cookies, in.str(v))
			return nil
		case o.kind == "style":
			if o.elem != nil {
				o.elem.Attrs["style:"+camelToCSS(name)] = in.str(v)
			}
			return nil
		}
		o.props[name] = v
		return nil
	case *Element:
		switch name {
		case "style":
			return fmt.Errorf("jsmini: cannot replace style object")
		case "innerHTML":
			html := in.str(v)
			if !in.charge(len(html)) {
				return nil
			}
			in.page.Writes = append(in.page.Writes, html)
			o.Attrs["innerHTML"] = html
			return nil
		default:
			o.Attrs[strings.ToLower(name)] = in.str(v)
			return nil
		}
	}
	return fmt.Errorf("jsmini: cannot set %q on %T", name, obj)
}

func camelToCSS(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			b.WriteByte('-')
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func (in *interp) eval(e expr) (value, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case strLit:
		return e.v, nil
	case numLit:
		return e.v, nil
	case identExpr:
		if v, ok := in.vars[e.name]; ok {
			return v, nil
		}
		switch e.name {
		case "undefined", "null":
			return nil, nil
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		return nil, fmt.Errorf("jsmini: undefined identifier %q", e.name)
	case funcLit:
		return closure{params: e.params, body: e.body}, nil
	case memberExpr:
		obj, err := in.eval(e.obj)
		if err != nil {
			return nil, err
		}
		v, err := in.member(obj, e.name)
		if err != nil {
			return nil, err
		}
		return v, nil
	case indexExpr:
		obj, err := in.eval(e.obj)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.idx)
		if err != nil {
			return nil, err
		}
		if arr, ok := obj.([]value); ok {
			i := int(toNumber(idx))
			if i < 0 || i >= len(arr) {
				return nil, nil
			}
			return arr[i], nil
		}
		if s, ok := obj.(string); ok {
			i := int(toNumber(idx))
			if i < 0 || i >= len(s) {
				return nil, nil
			}
			return s[i : i+1], nil
		}
		return in.member(obj, in.str(idx))
	case callExpr:
		return in.call(e)
	case binExpr:
		return in.binary(e)
	case unaryExpr:
		v, err := in.eval(e.e)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case "!":
			return !truthy(v), nil
		case "-":
			return -toNumber(v), nil
		}
		return nil, fmt.Errorf("jsmini: unary %q", e.op)
	case condExpr:
		c, err := in.eval(e.cond)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return in.eval(e.then)
		}
		return in.eval(e.els)
	}
	return nil, fmt.Errorf("jsmini: unknown expression %T", e)
}

func (in *interp) call(e callExpr) (value, error) {
	var this value
	var fn value
	var err error
	if m, ok := e.fn.(memberExpr); ok {
		this, err = in.eval(m.obj)
		if err != nil {
			return nil, err
		}
		fn, err = in.member(this, m.name)
		if err != nil {
			return nil, err
		}
	} else {
		fn, err = in.eval(e.fn)
		if err != nil {
			return nil, err
		}
	}
	args := make([]value, len(e.args))
	for i, a := range e.args {
		args[i], err = in.eval(a)
		if err != nil {
			return nil, err
		}
	}
	switch f := fn.(type) {
	case builtin:
		return f(in, this, args)
	case boundMethod:
		return f.fn(in, f.this, args)
	case closure:
		// Parameters shadow globals for the call's duration.
		saved := make(map[string]value, len(f.params))
		defined := make(map[string]bool, len(f.params))
		for i, p := range f.params {
			if old, ok := in.vars[p]; ok {
				saved[p] = old
				defined[p] = true
			}
			if i < len(args) {
				in.vars[p] = args[i]
			} else {
				in.vars[p] = nil
			}
		}
		runErr := in.run(f.body)
		for _, p := range f.params {
			if defined[p] {
				in.vars[p] = saved[p]
			} else {
				delete(in.vars, p)
			}
		}
		return nil, runErr
	}
	return nil, fmt.Errorf("jsmini: call of non-function %T", fn)
}

func (in *interp) binary(e binExpr) (value, error) {
	// Short-circuit logical operators.
	if e.op == "&&" || e.op == "||" {
		l, err := in.eval(e.l)
		if err != nil {
			return nil, err
		}
		if e.op == "&&" && !truthy(l) {
			return l, nil
		}
		if e.op == "||" && truthy(l) {
			return l, nil
		}
		return in.eval(e.r)
	}
	l, err := in.eval(e.l)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(e.r)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case "+":
		return in.add(l, r), nil
	case "-":
		return toNumber(l) - toNumber(r), nil
	case "*":
		return toNumber(l) * toNumber(r), nil
	case "/":
		return toNumber(l) / toNumber(r), nil
	case "%":
		ln, rn := int64(toNumber(l)), int64(toNumber(r))
		if rn == 0 {
			return 0.0, nil
		}
		return float64(ln % rn), nil
	case "==", "===":
		return looseEq(l, r), nil
	case "!=", "!==":
		return !looseEq(l, r), nil
	case "<":
		return compare(l, r) < 0, nil
	case ">":
		return compare(l, r) > 0, nil
	case "<=":
		return compare(l, r) <= 0, nil
	case ">=":
		return compare(l, r) >= 0, nil
	}
	return nil, fmt.Errorf("jsmini: binary %q", e.op)
}

// add is JavaScript's +: concatenation if either side is a string, the
// result charged before it is built; numeric addition otherwise.
func (in *interp) add(l, r value) value {
	ls, lok := l.(string)
	rs, rok := r.(string)
	switch {
	case !lok && !rok:
		return toNumber(l) + toNumber(r)
	case !lok:
		ls = in.str(l)
	case !rok:
		rs = in.str(r)
	}
	if !in.charge(len(ls) + len(rs)) {
		return ""
	}
	return ls + rs
}

func compare(l, r value) int {
	if ls, lok := l.(string); lok {
		if rs, rok := r.(string); rok {
			return strings.Compare(ls, rs)
		}
	}
	ln, rn := toNumber(l), toNumber(r)
	switch {
	case ln < rn:
		return -1
	case ln > rn:
		return 1
	}
	return 0
}

func looseEq(l, r value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	if _, ok := l.(string); ok {
		return toString(l) == toString(r)
	}
	if _, ok := r.(string); ok {
		return toString(l) == toString(r)
	}
	if lb, ok := l.(bool); ok {
		if rb, ok := r.(bool); ok {
			return lb == rb
		}
	}
	return toNumber(l) == toNumber(r)
}

func truthy(v value) bool {
	switch v := v.(type) {
	case nil:
		return false
	case bool:
		return v
	case string:
		return v != ""
	case float64:
		return v != 0
	default:
		return true
	}
}

func toString(v value) string {
	switch v := v.(type) {
	case nil:
		return "undefined"
	case string:
		return v
	case float64:
		if v == float64(int64(v)) {
			return strconv.FormatInt(int64(v), 10)
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		if v {
			return "true"
		}
		return "false"
	case []value:
		parts := make([]string, len(v))
		for i, e := range v {
			parts[i] = toString(e)
		}
		return strings.Join(parts, ",")
	case *object:
		return "[object " + v.kind + "]"
	case *Element:
		return "[object HTMLElement]"
	default:
		return fmt.Sprintf("%v", v)
	}
}

func toNumber(v value) float64 {
	switch v := v.(type) {
	case nil:
		return 0
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// member resolves property reads, including string/array methods and host
// object behaviour.
func (in *interp) member(obj value, name string) (value, error) {
	switch o := obj.(type) {
	case string:
		return stringMember(o, name)
	case []value:
		return arrayMember(o, name)
	case *Element:
		switch name {
		case "style":
			return &object{kind: "style", props: map[string]value{}, elem: o}, nil
		case "src", "width", "height", "id", "name":
			return o.Attrs[name], nil
		case "setAttribute":
			return boundMethod{this: o, fn: builtinSetAttribute}, nil
		case "appendChild":
			return boundMethod{this: o, fn: builtinAppendChild}, nil
		}
		return o.Attrs[strings.ToLower(name)], nil
	case *object:
		switch o.kind {
		case "document":
			switch name {
			case "referrer":
				return in.page.Referrer, nil
			case "location":
				return in.locationObject(), nil
			case "URL":
				return in.page.URL, nil
			case "cookie":
				return strings.Join(in.page.Cookies, "; "), nil
			case "write", "writeln":
				return boundMethod{this: o, fn: builtinDocumentWrite}, nil
			case "createElement":
				return boundMethod{this: o, fn: builtinCreateElement}, nil
			case "getElementById":
				return boundMethod{this: o, fn: builtinGetElementByID}, nil
			case "body", "documentElement", "head":
				return &object{kind: "body", props: map[string]value{}}, nil
			}
		case "window":
			switch name {
			case "location":
				return in.locationObject(), nil
			case "document":
				return in.vars["document"], nil
			case "innerWidth":
				return 1366.0, nil
			case "innerHeight":
				return 768.0, nil
			case "navigator":
				return in.vars["navigator"], nil
			case "setTimeout":
				return builtin(builtinSetTimeout), nil
			}
		case "location":
			switch name {
			case "href":
				return in.page.URL, nil
			case "hostname", "host":
				return hostOf(in.page.URL), nil
			case "replace", "assign":
				return boundMethod{this: o, fn: builtinLocationReplace}, nil
			case "protocol":
				if strings.HasPrefix(in.page.URL, "https") {
					return "https:", nil
				}
				return "http:", nil
			}
		case "navigator":
			if name == "userAgent" {
				if ua, ok := o.props["userAgent"]; ok {
					return ua, nil
				}
				return "", nil
			}
		case "body":
			if name == "appendChild" {
				return boundMethod{this: o, fn: builtinAppendChild}, nil
			}
			if name == "innerHTML" {
				return "", nil
			}
		case "String":
			if name == "fromCharCode" {
				return builtin(builtinFromCharCode), nil
			}
		case "Math":
			switch name {
			case "floor":
				return builtin(func(_ *interp, _ value, a []value) (value, error) {
					return float64(int64(toNumber(arg(a, 0)))), nil
				}), nil
			case "random":
				// Deterministic: cloaking kits use Math.random only for
				// cache busting, which detection must not depend on.
				return builtin(func(_ *interp, _ value, _ []value) (value, error) {
					return 0.5, nil
				}), nil
			}
		}
		if v, ok := o.props[name]; ok {
			return v, nil
		}
		return nil, nil
	case nil:
		return nil, fmt.Errorf("jsmini: member %q of undefined", name)
	}
	return nil, fmt.Errorf("jsmini: member %q of %T", name, obj)
}

func hostOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

func arg(args []value, i int) value {
	if i < len(args) {
		return args[i]
	}
	return nil
}

func (in *interp) locationObject() *object {
	return &object{kind: "location", props: map[string]value{}}
}

func (in *interp) installGlobals() {
	in.vars["document"] = &object{kind: "document", props: map[string]value{}}
	in.vars["window"] = &object{kind: "window", props: map[string]value{}}
	in.vars["self"] = in.vars["window"]
	in.vars["top"] = in.vars["window"]
	in.vars["location"] = in.locationObject()
	in.vars["navigator"] = &object{kind: "navigator", props: map[string]value{}}
	in.vars["String"] = &object{kind: "String", props: map[string]value{}}
	in.vars["Math"] = &object{kind: "Math", props: map[string]value{}}
	in.vars["unescape"] = builtin(builtinUnescape)
	in.vars["decodeURIComponent"] = builtin(builtinUnescape)
	in.vars["escape"] = builtin(func(in *interp, _ value, a []value) (value, error) {
		s := in.str(arg(a, 0))
		if !in.charge(3 * len(s)) {
			return "", nil
		}
		return url.QueryEscape(s), nil
	})
	in.vars["parseInt"] = builtin(func(_ *interp, _ value, a []value) (value, error) {
		// Like JavaScript's parseInt: consume the leading optional sign and
		// digits, ignore the rest.
		s := strings.TrimSpace(toString(arg(a, 0)))
		i := 0
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i {
			return 0.0, nil
		}
		n, _ := strconv.ParseInt(s[:j], 10, 64)
		return float64(n), nil
	})
	in.vars["eval"] = builtin(builtinEval)
	in.vars["setTimeout"] = builtin(builtinSetTimeout)
	in.vars["alert"] = builtin(func(_ *interp, _ value, _ []value) (value, error) {
		return nil, nil
	})
}

func builtinDocumentWrite(in *interp, _ value, args []value) (value, error) {
	parts := make([]string, len(args))
	n := 0
	for i, a := range args {
		parts[i] = in.str(a)
		n += len(parts[i])
	}
	if in.charge(n) {
		in.page.Writes = append(in.page.Writes, strings.Join(parts, ""))
	}
	return nil, nil
}

func builtinCreateElement(in *interp, _ value, args []value) (value, error) {
	e := &Element{Tag: strings.ToLower(toString(arg(args, 0))), Attrs: map[string]string{}}
	in.page.Created = append(in.page.Created, e)
	return e, nil
}

func builtinGetElementByID(in *interp, _ value, args []value) (value, error) {
	id := toString(arg(args, 0))
	for _, e := range in.page.Created {
		if e.Attrs["id"] == id {
			return e, nil
		}
	}
	// Unknown ids resolve to a fresh detached element so scripts keep going.
	e := &Element{Tag: "div", Attrs: map[string]string{"id": id}}
	in.page.Created = append(in.page.Created, e)
	return e, nil
}

func builtinSetAttribute(in *interp, this value, args []value) (value, error) {
	e, ok := this.(*Element)
	if !ok {
		return nil, fmt.Errorf("jsmini: setAttribute on %T", this)
	}
	e.Attrs[strings.ToLower(in.str(arg(args, 0)))] = in.str(arg(args, 1))
	return nil, nil
}

func builtinAppendChild(_ *interp, _ value, args []value) (value, error) {
	if e, ok := arg(args, 0).(*Element); ok {
		e.Appended = true
		return e, nil
	}
	return nil, nil
}

func builtinLocationReplace(in *interp, _ value, args []value) (value, error) {
	in.page.Redirect = in.str(arg(args, 0))
	return nil, nil
}

func builtinFromCharCode(_ *interp, _ value, args []value) (value, error) {
	var b strings.Builder
	for _, a := range args {
		b.WriteRune(rune(int(toNumber(a))))
	}
	return b.String(), nil
}

func builtinUnescape(in *interp, _ value, args []value) (value, error) {
	s := in.str(arg(args, 0))
	if !in.charge(len(s)) {
		return "", nil
	}
	if out, err := url.QueryUnescape(s); err == nil {
		return out, nil
	}
	return s, nil
}

// builtinEval re-enters the interpreter on dynamically assembled source —
// the obfuscation pattern that motivates executing rather than grepping
// scripts.
func builtinEval(in *interp, _ value, args []value) (value, error) {
	src := toString(arg(args, 0))
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	return nil, in.run(stmts)
}

// builtinSetTimeout runs the callback immediately: the simulation has no
// event loop, and cloaking kits use timeouts only to dodge naive crawlers.
func builtinSetTimeout(in *interp, _ value, args []value) (value, error) {
	switch f := arg(args, 0).(type) {
	case closure:
		return nil, in.run(f.body)
	case string:
		return builtinEval(in, nil, []value{f})
	}
	return nil, nil
}
