package sral

import (
	"fmt"
	"strings"
)

// String renders a program in the concrete SRAL syntax accepted by
// Parse. Sequential composition uses ";", parallel composition "||"
// (";" binds tighter), and conditional/loop bodies are braced:
//
//	read f1 @ s1; if x > 0 then { write f2 @ s1 } else { write f3 @ s2 }
func String(n Node) string {
	var b strings.Builder
	printNode(&b, n, precTop)
	return b.String()
}

// Operator precedence levels for printing: a Par child of a Seq must
// be braced, everything else associates naturally.
const (
	precTop  = iota // program position: nothing needs braces
	precPar         // operand of ||
	precSeq         // operand of ;
	precStmt        // body position requiring a single statement
)

func printNode(b *strings.Builder, n Node, prec int) {
	switch x := n.(type) {
	case nil:
		b.WriteString("<nil>")
	case Prim:
		// Written piecewise, without fmt: rendering is on the path of
		// every program digest.
		b.WriteString(string(x.Op))
		b.WriteByte(' ')
		b.WriteString(string(x.Resource))
		b.WriteString(" @ ")
		b.WriteString(string(x.Server))
	case Recv:
		fmt.Fprintf(b, "%s ? %s", x.Ch, x.Var)
	case Send:
		fmt.Fprintf(b, "%s ! %s", x.Ch, ExprString(x.Expr))
	case Signal:
		fmt.Fprintf(b, "signal(%s)", x.Sig)
	case Wait:
		fmt.Fprintf(b, "wait(%s)", x.Sig)
	case Skip:
		b.WriteString("skip")
	case Seq:
		brace := prec >= precStmt
		if brace {
			b.WriteString("{ ")
		}
		// The parser right-nests "a; b; c"; brace a left-nested first
		// operand so the parsed structure matches the printed one.
		firstPrec := precSeq
		if _, ok := x.First.(Seq); ok {
			firstPrec = precStmt
		}
		printNode(b, x.First, firstPrec)
		b.WriteString("; ")
		printNode(b, x.Second, precSeq)
		if brace {
			b.WriteString(" }")
		}
	case Par:
		brace := prec >= precPar
		if brace {
			b.WriteString("{ ")
		}
		leftPrec := precPar
		if _, ok := x.Left.(Par); ok {
			leftPrec = precStmt
		}
		printNode(b, x.Left, leftPrec)
		b.WriteString(" || ")
		printNode(b, x.Right, precPar)
		if brace {
			b.WriteString(" }")
		}
	case If:
		b.WriteString("if ")
		writeCond(b, x.Cond)
		b.WriteString(" then ")
		printBody(b, x.Then)
		b.WriteString(" else ")
		printBody(b, x.Else)
	case While:
		b.WriteString("while ")
		writeCond(b, x.Cond)
		b.WriteString(" do ")
		printBody(b, x.Body)
	default:
		fmt.Fprintf(b, "<node %T>", n)
	}
}

// printBody always braces conditional and loop bodies so the printed
// form is unambiguous regardless of the body's own structure.
func printBody(b *strings.Builder, n Node) {
	b.WriteString("{ ")
	printNode(b, n, precTop)
	b.WriteString(" }")
}

// Pretty renders a program with indentation, one construct per line —
// for policy files and diagnostics rather than round-tripping.
func Pretty(n Node) string {
	var b strings.Builder
	prettyNode(&b, n, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func prettyNode(b *strings.Builder, n Node, depth int) {
	switch x := n.(type) {
	case Seq:
		prettyNode(b, x.First, depth)
		b.WriteString(";\n")
		prettyNode(b, x.Second, depth)
	case Par:
		indent(b, depth)
		b.WriteString("{\n")
		prettyNode(b, x.Left, depth+1)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("} || {\n")
		prettyNode(b, x.Right, depth+1)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("}")
	case If:
		indent(b, depth)
		fmt.Fprintf(b, "if %s then {\n", CondString(x.Cond))
		prettyNode(b, x.Then, depth+1)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("} else {\n")
		prettyNode(b, x.Else, depth+1)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("}")
	case While:
		indent(b, depth)
		fmt.Fprintf(b, "while %s do {\n", CondString(x.Cond))
		prettyNode(b, x.Body, depth+1)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("}")
	default:
		indent(b, depth)
		printNode(b, n, precTop)
	}
}
