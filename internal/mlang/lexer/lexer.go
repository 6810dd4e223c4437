// Package lexer turns MinML source text into a token stream.
//
// The lexer is a straightforward hand-written scanner. It supports nested
// (* ... *) comments, decimal integer literals, primed type variables ('a),
// and distinguishes capitalized constructor names from ordinary identifiers,
// mirroring ML lexical conventions.
package lexer

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"tagfree/internal/mlang/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: lexical error: %s", e.Pos, e.Msg) }

// Lexer scans a source string into tokens.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// runeAt decodes the rune at byte offset off (-1 past the end) and its width.
func (l *Lexer) runeAt(off int) (rune, int) {
	if off >= len(l.src) {
		return -1, 0
	}
	if c := l.src[off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[off:])
}

func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.off)
	return r
}

func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.off)
	r, _ := l.runeAt(l.off + w)
	return r
}

func (l *Lexer) next() rune {
	r, w := l.runeAt(l.off)
	if w == 0 {
		return -1
	}
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// skipSpaceAndComments consumes whitespace and (possibly nested) comments.
func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.next()
		case r == '(' && l.peek2() == '*':
			start := l.pos()
			l.next() // (
			l.next() // *
			depth := 1
			for depth > 0 {
				c := l.next()
				if c == -1 {
					l.errorf(start, "unterminated comment")
					return
				}
				if c == '(' && l.peek() == '*' {
					l.next()
					depth++
				} else if c == '*' && l.peek() == ')' {
					l.next()
					depth--
				}
			}
		default:
			return
		}
	}
}

// Next returns the next token in the stream. After the end of input it
// returns EOF tokens forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	r := l.peek()
	if r == -1 {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	switch {
	case unicode.IsDigit(r):
		return l.scanInt(pos)
	case isIdentStart(r):
		return l.scanIdent(pos)
	case r == '\'':
		return l.scanTyVar(pos)
	case r == '"':
		return l.scanString(pos)
	}

	l.next()
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: pos} }
	switch r {
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '[':
		return mk(token.LBRACKET)
	case ']':
		return mk(token.RBRACKET)
	case ',':
		return mk(token.COMMA)
	case ';':
		if l.peek() == ';' {
			l.next()
			return mk(token.SEMISEMI)
		}
		return mk(token.SEMI)
	case ':':
		switch l.peek() {
		case ':':
			l.next()
			return mk(token.CONS)
		case '=':
			l.next()
			return mk(token.ASSIGN)
		}
		return mk(token.COLON)
	case '-':
		if l.peek() == '>' {
			l.next()
			return mk(token.ARROW)
		}
		return mk(token.MINUS)
	case '|':
		if l.peek() == '|' {
			l.next()
			return mk(token.BARBAR)
		}
		return mk(token.BAR)
	case '&':
		if l.peek() == '&' {
			l.next()
			return mk(token.AMPAMP)
		}
		l.errorf(pos, "unexpected character %q (did you mean &&?)", r)
		return token.Token{Kind: token.ILLEGAL, Text: string(r), Pos: pos}
	case '=':
		return mk(token.EQ)
	case '<':
		switch l.peek() {
		case '>':
			l.next()
			return mk(token.NE)
		case '=':
			l.next()
			return mk(token.LE)
		}
		return mk(token.LT)
	case '>':
		if l.peek() == '=' {
			l.next()
			return mk(token.GE)
		}
		return mk(token.GT)
	case '+':
		return mk(token.PLUS)
	case '*':
		return mk(token.STAR)
	case '/':
		return mk(token.SLASH)
	case '!':
		return mk(token.BANG)
	}
	l.errorf(pos, "unexpected character %q", r)
	return token.Token{Kind: token.ILLEGAL, Text: string(r), Pos: pos}
}

func (l *Lexer) scanInt(pos token.Pos) token.Token {
	start := l.off
	for unicode.IsDigit(l.peek()) {
		l.next()
	}
	return token.Token{Kind: token.INT, Text: l.src[start:l.off], Pos: pos}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	first := l.next()
	for isIdentPart(l.peek()) {
		l.next()
	}
	text := l.src[start:l.off]
	if text == "_" {
		return token.Token{Kind: token.UNDERSCORE, Pos: pos}
	}
	if k, ok := token.Keywords[text]; ok {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	if unicode.IsUpper(first) {
		return token.Token{Kind: token.CTOR, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Text: text, Pos: pos}
}

func (l *Lexer) scanTyVar(pos token.Pos) token.Token {
	l.next() // consume '
	start := l.off
	if !isIdentStart(l.peek()) {
		l.errorf(pos, "expected identifier after ' in type variable")
		return token.Token{Kind: token.ILLEGAL, Text: "'", Pos: pos}
	}
	for isIdentPart(l.peek()) {
		l.next()
	}
	return token.Token{Kind: token.TYVAR, Text: l.src[start:l.off], Pos: pos}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.next() // opening quote
	var buf []rune
	for {
		r := l.next()
		switch r {
		case -1, '\n':
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Text: string(buf), Pos: pos}
		case '"':
			return token.Token{Kind: token.STRING, Text: string(buf), Pos: pos}
		case '\\':
			esc := l.next()
			switch esc {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\', '"':
				buf = append(buf, esc)
			default:
				l.errorf(pos, "unknown escape \\%c", esc)
			}
		default:
			buf = append(buf, r)
		}
	}
}

// All scans the entire input and returns every token up to and including the
// first EOF. It is a convenience for tests and tools; the parser pulls its
// tokens one at a time through Next.
func (l *Lexer) All() []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}
