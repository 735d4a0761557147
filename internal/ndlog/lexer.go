package ndlog

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokIdent           // lowercase-initial identifier: predicates, functions, labels
	tokVar             // uppercase-initial identifier: variables
	tokNumber
	tokString
	tokPunct // single/double-char punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("ndlog: %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 <= len(l.src) {
				if l.peekByte() == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				if l.pos >= len(l.src) {
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		case c == '#':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

var twoCharPunct = map[string]bool{
	":-": true, "==": true, "!=": true, "<=": true, ">=": true,
	"&&": true, "||": true,
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if unicode.IsUpper(rune(text[0])) || text[0] == '_' {
			kind = tokVar
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
			l.advance()
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: line, col: col}, nil
	case c == '"' || c == '\'':
		quote := c
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf("unterminated string literal")
			}
			ch := l.advance()
			if ch == quote {
				// Tolerate the paper's ''sp2'' double-quote style: a
				// doubled quote immediately after closing is skipped.
				if l.pos < len(l.src) && l.peekByte() == quote && sb.Len() == 0 {
					l.advance()
					continue
				}
				break
			}
			if ch == '\\' && l.pos < len(l.src) { // see quote
				sb.WriteByte(l.advance())
				continue
			}
			sb.WriteByte(ch)
		}
		return token{kind: tokString, text: sb.String(), line: line, col: col}, nil
	default:
		if l.pos+1 < len(l.src) {
			two := l.src[l.pos : l.pos+2]
			if twoCharPunct[two] {
				l.advance()
				l.advance()
				return token{kind: tokPunct, text: two, line: line, col: col}, nil
			}
		}
		switch c {
		case '(', ')', ',', '.', '@', '+', '-', '*', '/', '<', '>', '=', '!':
			l.advance()
			return token{kind: tokPunct, text: string(c), line: line, col: col}, nil
		}
		return token{}, l.errorf("unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// tokenize lexes the whole source.
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// quote renders s as a string literal the lexer reads back as s: a string
// literal's one escape rule is that a backslash takes the next byte
// literally, so only the quote and the backslash are escaped and every other
// byte, printable or not, stands for itself.
func quote(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}
