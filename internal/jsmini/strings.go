package jsmini

import (
	"fmt"
	"strings"
)

// stringMember implements the string properties and methods the cloaking
// corpus relies on (indexOf, split/reverse/join obfuscation, substring,
// charAt, charCodeAt, replace, toLowerCase, length).
func stringMember(s, name string) (value, error) {
	switch name {
	case "length":
		return float64(len(s)), nil
	case "indexOf":
		return builtin(func(_ *interp, _ value, a []value) (value, error) {
			start := 0
			if len(a) > 1 {
				start = int(toNumber(a[1]))
			}
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				return -1.0, nil
			}
			idx := strings.Index(s[start:], toString(arg(a, 0)))
			if idx < 0 {
				return -1.0, nil
			}
			return float64(start + idx), nil
		}), nil
	case "lastIndexOf":
		return builtin(func(_ *interp, _ value, a []value) (value, error) {
			return float64(strings.LastIndex(s, toString(arg(a, 0)))), nil
		}), nil
	case "charAt":
		return builtin(func(_ *interp, _ value, a []value) (value, error) {
			i := int(toNumber(arg(a, 0)))
			if i < 0 || i >= len(s) {
				return "", nil
			}
			return s[i : i+1], nil
		}), nil
	case "charCodeAt":
		return builtin(func(_ *interp, _ value, a []value) (value, error) {
			i := int(toNumber(arg(a, 0)))
			if i < 0 || i >= len(s) {
				return 0.0, nil
			}
			return float64(s[i]), nil
		}), nil
	case "substring", "slice", "substr":
		isSubstr := name == "substr"
		return builtin(func(_ *interp, _ value, a []value) (value, error) {
			start := clampIdx(int(toNumber(arg(a, 0))), len(s))
			end := len(s)
			if len(a) > 1 {
				if isSubstr {
					end = clampIdx(start+int(toNumber(a[1])), len(s))
				} else {
					end = clampIdx(int(toNumber(a[1])), len(s))
				}
			}
			if end < start {
				start, end = end, start
			}
			return s[start:end], nil
		}), nil
	case "split":
		return builtin(func(in *interp, _ value, a []value) (value, error) {
			sep := toString(arg(a, 0))
			n := len(s)
			if sep != "" {
				n = strings.Count(s, sep) + 1
			}
			if !in.charge(n * slotBytes) {
				return []value{}, nil
			}
			var parts []string
			if sep == "" {
				for i := 0; i < len(s); i++ {
					parts = append(parts, s[i:i+1])
				}
			} else {
				parts = strings.Split(s, sep)
			}
			out := make([]value, len(parts))
			for i, p := range parts {
				out[i] = p
			}
			return out, nil
		}), nil
	case "replace":
		return builtin(func(in *interp, _ value, a []value) (value, error) {
			old, repl := in.str(arg(a, 0)), in.str(arg(a, 1))
			if !in.charge(len(s) + len(repl)) {
				return "", nil
			}
			return strings.Replace(s, old, repl, 1), nil
		}), nil
	case "toLowerCase":
		return builtin(func(in *interp, _ value, _ []value) (value, error) {
			if !in.charge(len(s)) {
				return "", nil
			}
			return strings.ToLower(s), nil
		}), nil
	case "toUpperCase":
		return builtin(func(in *interp, _ value, _ []value) (value, error) {
			if !in.charge(len(s)) {
				return "", nil
			}
			return strings.ToUpper(s), nil
		}), nil
	case "concat":
		return builtin(func(in *interp, _ value, a []value) (value, error) {
			parts := make([]string, len(a)+1)
			parts[0] = s
			n := len(s)
			for i, x := range a {
				parts[i+1] = in.str(x)
				n += len(parts[i+1])
			}
			if !in.charge(n) {
				return "", nil
			}
			return strings.Join(parts, ""), nil
		}), nil
	case "trim":
		return builtin(func(_ *interp, _ value, _ []value) (value, error) {
			return strings.TrimSpace(s), nil
		}), nil
	}
	return nil, fmt.Errorf("jsmini: string has no member %q", name)
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// arrayMember implements the array methods used by split/reverse/join
// obfuscation chains.
func arrayMember(a []value, name string) (value, error) {
	switch name {
	case "length":
		return float64(len(a)), nil
	case "reverse":
		return builtin(func(in *interp, _ value, _ []value) (value, error) {
			if !in.charge(len(a) * slotBytes) {
				return []value{}, nil
			}
			out := make([]value, len(a))
			for i, v := range a {
				out[len(a)-1-i] = v
			}
			return out, nil
		}), nil
	case "join":
		return builtin(func(in *interp, _ value, args []value) (value, error) {
			sep := ","
			if len(args) > 0 {
				sep = in.str(args[0])
			}
			parts := make([]string, len(a))
			n := len(sep) * max(len(a)-1, 0)
			for i, v := range a {
				parts[i] = in.str(v)
				n += len(parts[i])
			}
			if !in.charge(n) {
				return "", nil
			}
			return strings.Join(parts, sep), nil
		}), nil
	case "pop":
		return builtin(func(_ *interp, _ value, _ []value) (value, error) {
			if len(a) == 0 {
				return nil, nil
			}
			return a[len(a)-1], nil
		}), nil
	case "slice":
		return builtin(func(in *interp, _ value, args []value) (value, error) {
			start := clampIdx(int(toNumber(arg(args, 0))), len(a))
			end := len(a)
			if len(args) > 1 {
				end = clampIdx(int(toNumber(args[1])), len(a))
			}
			if end < start {
				end = start
			}
			if !in.charge((end - start) * slotBytes) {
				return []value{}, nil
			}
			out := make([]value, end-start)
			copy(out, a[start:end])
			return out, nil
		}), nil
	}
	return nil, fmt.Errorf("jsmini: array has no member %q", name)
}
