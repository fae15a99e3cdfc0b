package sral

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"stac/internal/model"
)

// Parse parses a program in the concrete SRAL syntax:
//
//	program := par
//	par     := seq { "||" seq }
//	seq     := stmt { ";" stmt }
//	stmt    := "skip"
//	         | "signal" "(" IDENT ")" | "wait" "(" IDENT ")"
//	         | "if" cond "then" stmt "else" stmt
//	         | "while" cond "do" stmt
//	         | "{" program "}"
//	         | IDENT "?" IDENT            (channel receive)
//	         | IDENT "!" expr             (channel send)
//	         | IDENT IDENT "@" IDENT      (shared resource access)
//	cond    := conj { "||" ... } — boolean "or" is spelled "or" to
//	           avoid clashing with parallel composition; "and" may be
//	           written "&&", negation "!".
//	expr    := integer arithmetic over +, -, *, /, parentheses,
//	           integer literals and variables.
//
// Opaque runtime guards are written "guard:NAME". Identifiers may
// contain letters, digits, '_', '-', '.' and '/'.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q after program", p.peek().text)
	}
	return n, nil
}

// MustParse is Parse that panics on error — for tests and fixtures.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// ParseCond parses a standalone boolean condition.
func ParseCond(src string) (Cond, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	c, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q after condition", p.peek().text)
	}
	return c, nil
}

// --- Lexer ----------------------------------------------------------

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct // one of ; { } ( ) ? ! @ + - * / < > = & |, possibly doubled
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// presizedTokens caps the tokens lex allocates for up front, so that a
// large source of whitespace or comments, which may arrive over the
// wire, does not buy a slice it never fills.
const presizedTokens = 8192

func lex(src string) ([]token, error) {
	// A program as sral.String prints it spends about three bytes per
	// token, so half a token per byte holds it in one allocation; a
	// denser or larger source regrows the slice as append does.
	toks := make([]token, 0, min(len(src)/2, presizedTokens)+1)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			// "guard:NAME" lexes as one identifier token.
			if j < len(src) && src[j] == ':' && src[i:j] == "guard" {
				j++
				for j < len(src) && isIdentRune(rune(src[j])) {
					j++
				}
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokInt, src[i:j], i})
			i = j
		default:
			// Multi-character punctuation first.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "||", "&&", "==", "!=", "<=", ">=":
				toks = append(toks, token{tokPunct, two, i})
				i += 2
				continue
			}
			switch c {
			case ';', '{', '}', '(', ')', '?', '!', '@', '+', '-', '*', '/', '<', '>':
				toks = append(toks, token{tokPunct, src[i : i+1], i})
				i++
			default:
				return nil, fmt.Errorf("sral: illegal character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '_' || r == '-' || r == '.' || r == '/'
}

var keywords = map[string]bool{
	"skip": true, "signal": true, "wait": true,
	"if": true, "then": true, "else": true,
	"while": true, "do": true, "true": true, "false": true,
	"or": true, "and": true, "not": true,
}

// --- Parser ---------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) eof() bool     { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sral: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptPunct(text string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	if !p.acceptPunct(text) {
		return p.errorf("expected %q, found %q", text, p.peek().text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent || keywords[t.text] {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// parsePar parses seq { "||" seq }.
func (p *parser) parsePar() (Node, error) {
	left, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		left = Par{Left: left, Right: right}
	}
	return left, nil
}

// parseSeq parses stmt { ";" stmt }.
func (p *parser) parseSeq() (Node, error) {
	first, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	stmts := []Node{first}
	for p.acceptPunct(";") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return SeqOf(stmts...), nil
}

func (p *parser) parseStmt() (Node, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "{":
		p.next()
		n, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return n, nil
	case t.kind == tokIdent && t.text == "skip":
		p.next()
		return Skip{}, nil
	case t.kind == tokIdent && (t.text == "signal" || t.text == "wait"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if t.text == "signal" {
			return Signal{Sig: model.SignalID(id)}, nil
		}
		return Wait{Sig: model.SignalID(id)}, nil
	case t.kind == tokIdent && t.text == "if":
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Node = Skip{}
		if p.acceptKeyword("else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return If{Cond: c, Then: then, Else: els}, nil
	case t.kind == tokIdent && t.text == "while":
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("do"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return While{Cond: c, Body: body}, nil
	case t.kind == tokIdent && !keywords[t.text]:
		return p.parseLeaf()
	}
	return nil, p.errorf("expected statement, found %q", t.text)
}

// parseLeaf parses the three identifier-led primitives: receive
// "ch ? x", send "ch ! e" and access "op r @ s".
func (p *parser) parseLeaf() (Node, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptPunct("?"):
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return Recv{Ch: model.ChannelID(first), Var: model.VarID(v)}, nil
	case p.acceptPunct("!"):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Send{Ch: model.ChannelID(first), Expr: e}, nil
	default:
		r, err := p.expectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w (an access is written \"op resource @ server\")", err)
		}
		if err := p.expectPunct("@"); err != nil {
			return nil, err
		}
		s, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return Prim{
			Op:       model.Operation(first),
			Resource: model.ResourceID(r),
			Server:   model.ServerID(s),
		}, nil
	}
}

// --- Conditions -----------------------------------------------------

// parseCond parses disjunctions: conj { "or" conj }. The keyword "or"
// is used instead of "||" so that conditions do not collide with
// parallel composition.
func (p *parser) parseCond() (Cond, error) {
	left, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		left = Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseConj() (Cond, error) {
	left, err := p.parseCondUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") || p.acceptKeyword("and") {
		right, err := p.parseCondUnary()
		if err != nil {
			return nil, err
		}
		left = And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseCondUnary() (Cond, error) {
	if p.acceptPunct("!") || p.acceptKeyword("not") {
		c, err := p.parseCondUnary()
		if err != nil {
			return nil, err
		}
		return Not{C: c}, nil
	}
	return p.parseCondAtom()
}

func (p *parser) parseCondAtom() (Cond, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return True, nil
	case t.kind == tokIdent && t.text == "false":
		p.next()
		return False, nil
	case t.kind == tokIdent && strings.HasPrefix(t.text, "guard:"):
		p.next()
		return Opaque{Name: strings.TrimPrefix(t.text, "guard:")}, nil
	case t.kind == tokPunct && t.text == "(":
		// Ambiguous: "(cond)" or a comparison whose left expression is
		// parenthesised, e.g. "(x + 1) > 2". Try the condition reading
		// first and fall back to a comparison on failure.
		mark := p.save()
		p.next()
		c, err := p.parseCond()
		if err == nil {
			if err2 := p.expectPunct(")"); err2 == nil {
				// A bare parenthesised condition — but it may itself be
				// the left side of a comparison only if it was an
				// expression; conditions cannot be compared, so we are
				// done.
				return c, nil
			}
		}
		p.restore(mark)
		return p.parseCmp()
	default:
		return p.parseCmp()
	}
}

func (p *parser) parseCmp() (Cond, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokPunct {
		return nil, p.errorf("expected comparison operator, found %q", t.text)
	}
	var op CmpOp
	switch t.text {
	case "==":
		op = CmpEq
	case "!=":
		op = CmpNe
	case "<":
		op = CmpLt
	case "<=":
		op = CmpLe
	case ">":
		op = CmpGt
	case ">=":
		op = CmpGe
	default:
		return nil, p.errorf("expected comparison operator, found %q", t.text)
	}
	p.next()
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, Left: left, Right: right}, nil
}

// --- Expressions ----------------------------------------------------

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		left = BinOp{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		left = BinOp{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q: %v", t.text, err)
		}
		return IntLit{Value: v}, nil
	case t.kind == tokPunct && t.text == "-":
		p.next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return BinOp{Op: OpSub, Left: IntLit{}, Right: inner}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent && !keywords[t.text]:
		p.next()
		return VarRef{Var: model.VarID(t.text)}, nil
	}
	return nil, p.errorf("expected expression, found %q", t.text)
}
