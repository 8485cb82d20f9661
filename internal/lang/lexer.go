// Package lang implements a small textual language for constraint queries,
// used by the CLI and the examples. A program has the form
//
//	find T in towns, R in roads, B in states
//	given C, A
//	where
//	  A <= C;
//	  B <= C;
//	  R <= A | B | T;
//	  R & A != 0;
//	  R & T != 0;
//	  T !<= C
//
// Formulas use & (meet), | (join), ~ (complement), constants 0 and 1, and
// parentheses. Constraint operators are <= (containment), !<= (negated
// containment), = and != (equality/disequality, desugared per §1), along
// with the convenience forms `disjoint(f,g)` and `overlaps(f,g)`.
//
// DESIGN.md §2 ("Compilation") places this package in the module map.
package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind discriminates lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokZero   // 0
	TokOne    // 1
	TokAnd    // &
	TokOr     // |
	TokNot    // ~
	TokLParen // (
	TokRParen // )
	TokComma  // ,
	TokSemi   // ;
	TokLeq    // <=
	TokNLeq   // !<=
	TokEq     // =
	TokNeq    // !=
	TokFind   // keyword
	TokIn     // keyword
	TokGiven  // keyword
	TokWhere  // keyword
)

// Token is a lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Lex tokenizes the input, returning a token stream or a positioned error.
// The stream is allocated once, at maxTokens(src).
func Lex(src string) ([]Token, error) {
	toks := make([]Token, 0, maxTokens(src))
	s := scanner{src: src}
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// maxTokens bounds how many tokens src lexes to, the trailing TokEOF
// included, in one pass over its bytes. A token starts at a byte that is
// not whitespace and either follows whitespace or the input's start, or
// is or follows a punctuation byte: one of the single-byte tokens, a byte
// of <=, != or !<=, or the constant 0 or 1, which end a token without a
// space ("0a" is two tokens). An identifier starts after none of these
// and runs on through every byte that is none of them, so no token start
// is missed; the second byte of an operator, a digit inside a name and
// the words of a comment are counted too, which only makes the bound
// looser.
func maxTokens(src string) int {
	n, brk := 1, true
	for i := 0; i < len(src); i++ {
		space, punct := false, false
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			space = true
		case '&', '|', '~', '(', ')', ',', ';', '0', '1', '<', '=', '!':
			punct = true
		}
		if !space && (brk || punct) {
			n++
		}
		brk = space || punct
	}
	return n
}

// scanner yields src's tokens one at a time: Lex collects them, and
// Normalize renders them as it scans, with no token slice at all.
type scanner struct {
	src string
	i   int // offset of the next unread byte
}

// next returns the next token: TokEOF, at len(src), once the input is
// exhausted. A token's text is a substring of src.
func (s *scanner) next() (Token, error) {
	src := s.src
	for s.i < len(src) {
		i := s.i
		c := src[i]
		kind, width := TokEOF, 1
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.i++
			continue
		case c == '#': // comment to end of line
			for s.i < len(src) && src[s.i] != '\n' {
				s.i++
			}
			continue
		case c == '&':
			kind = TokAnd
		case c == '|':
			kind = TokOr
		case c == '~':
			kind = TokNot
		case c == '(':
			kind = TokLParen
		case c == ')':
			kind = TokRParen
		case c == ',':
			kind = TokComma
		case c == ';':
			kind = TokSemi
		case c == '0':
			kind = TokZero
		case c == '1':
			kind = TokOne
		case c == '<':
			if i+1 >= len(src) || src[i+1] != '=' {
				return Token{}, fmt.Errorf("lang: offset %d: expected <=, got <%c", i, peek(src, i+1))
			}
			kind, width = TokLeq, 2
		case c == '=':
			kind = TokEq
		case c == '!':
			switch {
			case strings.HasPrefix(src[i:], "!<="):
				kind, width = TokNLeq, 3
			case strings.HasPrefix(src[i:], "!="):
				kind, width = TokNeq, 2
			default:
				return Token{}, fmt.Errorf("lang: offset %d: expected != or !<=", i)
			}
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			kind, width = TokIdent, j-i
			switch src[i:j] {
			case "find":
				kind = TokFind
			case "in":
				kind = TokIn
			case "given":
				kind = TokGiven
			case "where":
				kind = TokWhere
			}
		default:
			return Token{}, fmt.Errorf("lang: offset %d: unexpected character %q", i, c)
		}
		s.i += width
		return Token{kind, src[i:s.i], i}, nil
	}
	return Token{TokEOF, "", len(src)}, nil
}

func peek(s string, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return ' '
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}
