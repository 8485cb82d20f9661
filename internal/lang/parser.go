package lang

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/query"
)

// Parse parses a full query program:
//
//	find <var> in <layer> {, <var> in <layer>}
//	[given <var> {, <var>}]
//	where <constraint> {; <constraint>} [;]
//
// The result is a ready-to-compile query; the `given` clause declares the
// parameters the caller must bind at run time (it is also implicit: any
// variable used in constraints but not retrieved is a parameter).
func Parse(src string) (*query.Query, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, q: query.New()}
	if err := p.program(); err != nil {
		return nil, err
	}
	return p.q, nil
}

// ParseConstraints parses just a `;`-separated constraint list into the
// query's system (no find/given/where header). Useful for embedding.
func ParseConstraints(src string, q *query.Query) error {
	toks, err := Lex(src)
	if err != nil {
		return err
	}
	p := &parser{toks: toks, q: q}
	if err := p.constraints(); err != nil {
		return err
	}
	return p.expect(TokEOF)
}

type parser struct {
	toks []Token
	pos  int
	q    *query.Query
}

// cur and next clamp at the trailing EOF token so that error paths on
// truncated input never index past the stream.
func (p *parser) cur() Token { return p.at(p.pos) }

func (p *parser) at(i int) Token {
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[i]
}

func (p *parser) next() Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind TokenKind) error {
	if p.cur().Kind != kind {
		return fmt.Errorf("lang: offset %d: unexpected %s", p.cur().Pos, p.cur())
	}
	p.pos++
	return nil
}

func (p *parser) program() error {
	if err := p.expect(TokFind); err != nil {
		return fmt.Errorf("lang: program must start with 'find': %w", err)
	}
	for {
		if p.cur().Kind != TokIdent {
			return fmt.Errorf("lang: offset %d: expected variable name, got %s", p.cur().Pos, p.cur())
		}
		v := p.next()
		if err := p.expect(TokIn); err != nil {
			return err
		}
		if p.cur().Kind != TokIdent {
			return fmt.Errorf("lang: offset %d: expected layer name, got %s", p.cur().Pos, p.cur())
		}
		layer := p.next().Text
		if _, err := p.variable(v); err != nil { // declare in retrieval order
			return err
		}
		p.q.From(v.Text, layer)
		if p.cur().Kind != TokComma {
			break
		}
		p.pos++
	}
	if p.cur().Kind == TokGiven {
		p.pos++
		for {
			if p.cur().Kind != TokIdent {
				return fmt.Errorf("lang: offset %d: expected parameter name, got %s", p.cur().Pos, p.cur())
			}
			if _, err := p.variable(p.next()); err != nil {
				return err
			}
			if p.cur().Kind != TokComma {
				break
			}
			p.pos++
		}
	}
	if err := p.expect(TokWhere); err != nil {
		return fmt.Errorf("lang: missing 'where' clause: %w", err)
	}
	if err := p.constraints(); err != nil {
		return err
	}
	return p.expect(TokEOF)
}

// variable declares (or looks up) the variable an identifier names. A
// program naming more than formula.MaxVars variables is an error, not a
// panic in the symbol table.
func (p *parser) variable(t Token) (*formula.Formula, error) {
	vars := p.q.Sys.Vars
	if _, ok := vars.Lookup(t.Text); !ok && vars.Len() >= formula.MaxVars {
		return nil, fmt.Errorf("lang: offset %d: %q is variable %d; at most %d are supported",
			t.Pos, t.Text, vars.Len()+1, formula.MaxVars)
	}
	return p.q.Sys.Var(t.Text), nil
}

// constraints parses `constraint {; constraint} [;]`.
func (p *parser) constraints() error {
	for {
		if err := p.constraint(); err != nil {
			return err
		}
		if p.cur().Kind != TokSemi {
			return nil
		}
		p.pos++
		if p.cur().Kind == TokEOF {
			return nil // trailing semicolon
		}
	}
}

// constraint := disjoint(f,g) | overlaps(f,g) | expr (<=|!<=|=|!=) expr
func (p *parser) constraint() error {
	if p.cur().Kind == TokIdent && (p.cur().Text == "disjoint" || p.cur().Text == "overlaps") &&
		p.at(p.pos+1).Kind == TokLParen {
		name := p.next().Text
		p.pos++ // (
		f, err := p.expr()
		if err != nil {
			return err
		}
		if err := p.expect(TokComma); err != nil {
			return err
		}
		g, err := p.expr()
		if err != nil {
			return err
		}
		if err := p.expect(TokRParen); err != nil {
			return err
		}
		if name == "disjoint" {
			p.q.Sys.Disjoint(f, g)
		} else {
			p.q.Sys.Overlap(f, g)
		}
		return nil
	}
	lhs, err := p.expr()
	if err != nil {
		return err
	}
	op := p.next()
	rhs, err := p.expr()
	if err != nil {
		return err
	}
	switch op.Kind {
	case TokLeq:
		p.q.Sys.Subset(lhs, rhs)
	case TokNLeq:
		p.q.Sys.NotSubset(lhs, rhs)
	case TokEq:
		p.q.Sys.Equal(lhs, rhs)
	case TokNeq:
		p.q.Sys.NotEqual(lhs, rhs)
	default:
		return fmt.Errorf("lang: offset %d: expected constraint operator, got %s", op.Pos, op)
	}
	return nil
}

// expr := term {'|' term}
func (p *parser) expr() (*formula.Formula, error) {
	f, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOr {
		p.pos++
		g, err := p.term()
		if err != nil {
			return nil, err
		}
		f = formula.Or(f, g)
	}
	return f, nil
}

// term := factor {'&' factor}
func (p *parser) term() (*formula.Formula, error) {
	f, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokAnd {
		p.pos++
		g, err := p.factor()
		if err != nil {
			return nil, err
		}
		f = formula.And(f, g)
	}
	return f, nil
}

// factor := '~' factor | '(' expr ')' | ident | 0 | 1
func (p *parser) factor() (*formula.Formula, error) {
	switch t := p.next(); t.Kind {
	case TokNot:
		f, err := p.factor()
		if err != nil {
			return nil, err
		}
		return formula.Not(f), nil
	case TokLParen:
		f, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return f, nil
	case TokIdent:
		return p.variable(t)
	case TokZero:
		return formula.Zero(), nil
	case TokOne:
		return formula.One(), nil
	default:
		return nil, fmt.Errorf("lang: offset %d: expected formula, got %s", t.Pos, t)
	}
}
