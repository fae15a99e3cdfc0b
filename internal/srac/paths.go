package srac

// Clause paths address the nodes of a constraint tree: "" is the
// root, then one letter per step — 'l'/'r' into a conjunction or
// disjunction, 'n' under a negation. Paths are stable across
// evaluations of the same constraint, and WalkPaths' i-th path names
// the i-th record of an evaluation (Evaluate), so the engine's
// per-clause profiler keys its cells by (permission, path).

// WalkPaths visits every node of the constraint tree with its
// coverage path, pre-order. Aggregators use it to pre-seed cells so
// clauses that never get evaluated still show up (as dead).
func WalkPaths(c Constraint, fn func(path string, c Constraint)) {
	walkPaths(c, "", fn)
}

func walkPaths(c Constraint, path string, fn func(string, Constraint)) {
	fn(path, c)
	switch x := c.(type) {
	case And:
		walkPaths(x.Left, path+"l", fn)
		walkPaths(x.Right, path+"r", fn)
	case Or:
		walkPaths(x.Left, path+"l", fn)
		walkPaths(x.Right, path+"r", fn)
	case Not:
		walkPaths(x.C, path+"n", fn)
	}
}

// SubclauseAt resolves a coverage path against a constraint tree,
// returning the subformula the path addresses (false when the path
// does not exist in this tree — a stale path from another policy).
func SubclauseAt(c Constraint, path string) (Constraint, bool) {
	for i := 0; i < len(path); i++ {
		switch x := c.(type) {
		case And:
			switch path[i] {
			case 'l':
				c = x.Left
			case 'r':
				c = x.Right
			default:
				return nil, false
			}
		case Or:
			switch path[i] {
			case 'l':
				c = x.Left
			case 'r':
				c = x.Right
			default:
				return nil, false
			}
		case Not:
			if path[i] != 'n' {
				return nil, false
			}
			c = x.C
		default:
			return nil, false
		}
	}
	return c, true
}
