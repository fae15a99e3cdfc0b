package sral

import (
	"fmt"
	"strconv"
	"strings"

	"stac/internal/model"
)

// Expr is an arithmetic expression (the e of "ch ! e"): integer
// constants, program variables bound by channel receives, and the four
// basic operators.
type Expr interface {
	isExpr()
	// EvalExpr evaluates the expression in the given environment.
	// Unbound variables evaluate to zero, matching the zero-value
	// semantics of the agent interpreter's variable store.
	EvalExpr(env Env) int64
}

// Cond is a boolean expression (the c of conditionals and loops):
// truth constants, comparisons of arithmetic expressions, and the
// propositional connectives.
type Cond interface {
	isCond()
	// EvalCond evaluates the condition in the given environment.
	EvalCond(env Env) bool
}

// Env supplies variable bindings to expression evaluation. The agent
// interpreter implements it with its variable store; tests use EnvMap.
type Env interface {
	// Lookup returns the value bound to the variable and whether the
	// variable is bound.
	Lookup(v model.VarID) (int64, bool)
}

// EnvMap is a map-backed Env.
type EnvMap map[model.VarID]int64

// Lookup implements Env.
func (m EnvMap) Lookup(v model.VarID) (int64, bool) {
	x, ok := m[v]
	return x, ok
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// VarRef reads a program variable.
type VarRef struct{ Var model.VarID }

// BinOp applies an arithmetic operator to two subexpressions.
type BinOp struct {
	Op          ArithOp
	Left, Right Expr
}

// ArithOp enumerates the arithmetic operators.
type ArithOp byte

// Arithmetic operators.
const (
	OpAdd ArithOp = '+'
	OpSub ArithOp = '-'
	OpMul ArithOp = '*'
	OpDiv ArithOp = '/'
)

func (IntLit) isExpr() {}
func (VarRef) isExpr() {}
func (BinOp) isExpr()  {}

// EvalExpr implements Expr.
func (e IntLit) EvalExpr(Env) int64 { return e.Value }

// EvalExpr implements Expr.
func (e VarRef) EvalExpr(env Env) int64 {
	if env == nil {
		return 0
	}
	v, _ := env.Lookup(e.Var)
	return v
}

// EvalExpr implements Expr. Division by zero yields zero rather than
// panicking: a mobile object program must not be able to crash the
// hosting server's interpreter.
func (e BinOp) EvalExpr(env Env) int64 {
	l := e.Left.EvalExpr(env)
	r := e.Right.EvalExpr(env)
	switch e.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	}
	return 0
}

// BoolLit is a truth constant.
type BoolLit struct{ Value bool }

// Cmp compares two arithmetic expressions.
type Cmp struct {
	Op          CmpOp
	Left, Right Expr
}

// CmpOp enumerates the comparison operators.
type CmpOp string

// Comparison operators.
const (
	CmpEq CmpOp = "=="
	CmpNe CmpOp = "!="
	CmpLt CmpOp = "<"
	CmpLe CmpOp = "<="
	CmpGt CmpOp = ">"
	CmpGe CmpOp = ">="
)

// And is conjunction; Or is disjunction; Not is negation.
type And struct{ Left, Right Cond }

// Or is the disjunction of two conditions.
type Or struct{ Left, Right Cond }

// Not is the negation of a condition.
type Not struct{ C Cond }

// Opaque is a named condition whose truth is supplied by the runtime
// rather than computed from program variables — the "pre-condition"
// guard of the paper's Checkable objects (e.g. ResultVerify in the
// ApplAgentProg example). The static checker treats an Opaque
// condition as unknown (both branches possible).
type Opaque struct {
	Name string
	// Fn supplies the truth value at run time; a nil Fn evaluates to
	// false (fail-safe: guarded accesses do not run).
	Fn func() bool
}

func (BoolLit) isCond() {}
func (Cmp) isCond()     {}
func (And) isCond()     {}
func (Or) isCond()      {}
func (Not) isCond()     {}
func (Opaque) isCond()  {}

// EvalCond implements Cond.
func (c BoolLit) EvalCond(Env) bool { return c.Value }

// EvalCond implements Cond.
func (c Cmp) EvalCond(env Env) bool {
	l := c.Left.EvalExpr(env)
	r := c.Right.EvalExpr(env)
	switch c.Op {
	case CmpEq:
		return l == r
	case CmpNe:
		return l != r
	case CmpLt:
		return l < r
	case CmpLe:
		return l <= r
	case CmpGt:
		return l > r
	case CmpGe:
		return l >= r
	}
	return false
}

// EvalCond implements Cond.
func (c And) EvalCond(env Env) bool { return c.Left.EvalCond(env) && c.Right.EvalCond(env) }

// EvalCond implements Cond.
func (c Or) EvalCond(env Env) bool { return c.Left.EvalCond(env) || c.Right.EvalCond(env) }

// EvalCond implements Cond.
func (c Not) EvalCond(env Env) bool { return !c.C.EvalCond(env) }

// EvalCond implements Cond.
func (c Opaque) EvalCond(Env) bool {
	if c.Fn == nil {
		return false
	}
	return c.Fn()
}

// True and False are the shared truth constants.
var (
	True  = BoolLit{Value: true}
	False = BoolLit{Value: false}
)

// Lit builds an integer literal expression.
func Lit(v int64) IntLit { return IntLit{Value: v} }

// V builds a variable reference expression.
func V(name model.VarID) VarRef { return VarRef{Var: name} }

// Add builds l + r.
func Add(l, r Expr) BinOp { return BinOp{Op: OpAdd, Left: l, Right: r} }

// Sub builds l - r.
func Sub(l, r Expr) BinOp { return BinOp{Op: OpSub, Left: l, Right: r} }

// Mul builds l * r.
func Mul(l, r Expr) BinOp { return BinOp{Op: OpMul, Left: l, Right: r} }

// Div builds l / r (with division by zero evaluating to zero).
func Div(l, r Expr) BinOp { return BinOp{Op: OpDiv, Left: l, Right: r} }

// Gt builds l > r.
func Gt(l, r Expr) Cmp { return Cmp{Op: CmpGt, Left: l, Right: r} }

// Lt builds l < r.
func Lt(l, r Expr) Cmp { return Cmp{Op: CmpLt, Left: l, Right: r} }

// Eq builds l == r.
func Eq(l, r Expr) Cmp { return Cmp{Op: CmpEq, Left: l, Right: r} }

// Guard builds an opaque runtime-supplied condition.
func Guard(name string, fn func() bool) Opaque { return Opaque{Name: name, Fn: fn} }

// ExprString renders an expression in concrete syntax.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

// writeExpr renders e into b, as ExprString returns it.
func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		b.WriteString("<nil>")
	case IntLit:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], x.Value, 10))
	case VarRef:
		b.WriteString(string(x.Var))
	case BinOp:
		b.WriteByte('(')
		writeExpr(b, x.Left)
		b.WriteByte(' ')
		b.WriteByte(byte(x.Op))
		b.WriteByte(' ')
		writeExpr(b, x.Right)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "<expr %T>", e)
	}
}

// CondString renders a condition in concrete syntax.
func CondString(c Cond) string {
	var b strings.Builder
	writeCond(&b, c)
	return b.String()
}

// writeCond renders c into b, as CondString returns it. It writes
// piecewise, without fmt: conditions are on the path of every program
// digest.
func writeCond(b *strings.Builder, c Cond) {
	switch x := c.(type) {
	case nil:
		b.WriteString("<nil>")
	case BoolLit:
		if x.Value {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case Cmp:
		writeExpr(b, x.Left)
		b.WriteByte(' ')
		b.WriteString(string(x.Op))
		b.WriteByte(' ')
		writeExpr(b, x.Right)
	case And:
		b.WriteByte('(')
		writeCond(b, x.Left)
		b.WriteString(" && ")
		writeCond(b, x.Right)
		b.WriteByte(')')
	case Or:
		b.WriteByte('(')
		writeCond(b, x.Left)
		b.WriteString(" or ")
		writeCond(b, x.Right)
		b.WriteByte(')')
	case Not:
		b.WriteString("!(")
		writeCond(b, x.C)
		b.WriteByte(')')
	case Opaque:
		name := x.Name
		if name == "" {
			name = "anon"
		}
		if strings.ContainsAny(name, " \t\n(){};") {
			name = strconv.Quote(name)
		}
		b.WriteString("guard:")
		b.WriteString(name)
	default:
		fmt.Fprintf(b, "<cond %T>", c)
	}
}

// CondVars returns the variables mentioned by a condition.
func CondVars(c Cond) []model.VarID {
	var out []model.VarID
	seen := map[model.VarID]bool{}
	var exprVars func(Expr)
	exprVars = func(e Expr) {
		switch x := e.(type) {
		case VarRef:
			if !seen[x.Var] {
				seen[x.Var] = true
				out = append(out, x.Var)
			}
		case BinOp:
			exprVars(x.Left)
			exprVars(x.Right)
		}
	}
	var condVars func(Cond)
	condVars = func(c Cond) {
		switch x := c.(type) {
		case Cmp:
			exprVars(x.Left)
			exprVars(x.Right)
		case And:
			condVars(x.Left)
			condVars(x.Right)
		case Or:
			condVars(x.Left)
			condVars(x.Right)
		case Not:
			condVars(x.C)
		}
	}
	condVars(c)
	return out
}
