// Package jsmini implements a deliberately small JavaScript interpreter
// covering the idioms black-hat SEO kits use for client-side cloaking:
// string-concatenation and fromCharCode/unescape obfuscation, conditional
// redirects keyed on document.referrer, full-page iframe injection via
// document.createElement/appendChild, and document.write. The VanGogh
// crawler executes page scripts with it to observe the DOM a real browser
// would build — the capability whose cost the paper identifies as the main
// obstacle to detecting iframe cloaking at scale.
//
// The interpreter is defensive: it has a step budget and a byte budget,
// no host access beyond the supplied Page, and treats any unsupported
// construct as a soft error rather than a panic.
package jsmini

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // operators and punctuation
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns an error for unterminated strings; all other
// byte sequences lex to punctuation or identifiers.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9':
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			l.lexPunct()
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return fmt.Errorf("jsmini: unterminated escape at %d", l.pos)
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'x':
				if l.pos+2 < len(l.src) {
					var v int
					fmt.Sscanf(l.src[l.pos+1:l.pos+3], "%x", &v)
					b.WriteByte(byte(v))
					l.pos += 2
				}
			default:
				b.WriteByte(e)
			}
			l.pos++
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("jsmini: unterminated string at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

// multi-character punctuation, longest first.
var puncts = []string{
	"===", "!==", "==", "!=", "<=", ">=", "&&", "||", "+=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "(", ")", "{", "}",
	"[", "]", ";", ",", ".", "?", ":",
}

func (l *lexer) lexPunct() {
	rest := l.src[l.pos:]
	for _, p := range puncts {
		if strings.HasPrefix(rest, p) {
			l.toks = append(l.toks, token{kind: tokPunct, text: p, pos: l.pos})
			l.pos += len(p)
			return
		}
	}
	// Unknown byte: emit as punct so the parser can reject it in context.
	l.toks = append(l.toks, token{kind: tokPunct, text: rest[:1], pos: l.pos})
	l.pos++
}
