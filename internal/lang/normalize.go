package lang

import "strings"

// Normalize returns the canonical rendering of a query program: the token
// stream re-serialized with uniform spacing, comments and line breaks
// stripped. Two programs that lex to the same tokens normalize to the
// same string, which makes the result a stable key for compiled-plan
// caches (boolqd's plan cache keys on Normalize(src) plus the store
// epoch). The input is not parsed beyond lexing, so a normalized key can
// be computed even for programs that fail semantic checks; Parse errors
// then surface on the cache miss path.
//
// Normalize renders the tokens as it scans them, into a string sized
// once at the input's length: one allocation for an input no shorter
// than its canonical form.
func Normalize(src string) (string, error) {
	var b strings.Builder
	b.Grow(len(src))
	s := scanner{src: src}
	var prev Token // TokEOF until the first token
	for {
		t, err := s.next()
		if err != nil {
			return "", err
		}
		if t.Kind == TokEOF {
			return b.String(), nil
		}
		if prev.Kind != TokEOF && spaceBetween(prev, t) {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
		prev = t
	}
}

// spaceBetween decides whether the canonical form separates two adjacent
// tokens: punctuation hugs its operand (no space before , ; ) or after
// ( ~, and a call-style ident( pair stays glued), everything else is
// space-separated.
func spaceBetween(prev, cur Token) bool {
	switch cur.Kind {
	case TokComma, TokSemi, TokRParen:
		return false
	}
	switch prev.Kind {
	case TokLParen, TokNot:
		return false
	}
	if cur.Kind == TokLParen && prev.Kind == TokIdent {
		return false
	}
	return true
}
