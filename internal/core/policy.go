package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
)

// LoadPolicy reads a coalition policy in the stacd text format and
// applies it to the engine — the stand-in for the Java policy files
// whose grant statements associate permissions to principals
// (Section 5.1). The format is line oriented; '#' starts a comment.
//
//	user <id>
//	role <id>
//	assign <user> <role>
//	inherit <senior> <junior>
//	ssd <name> <cardinality> <role> <role> [...]
//	dsd <name> <cardinality> <role> <role> [...]
//	permission <id> <op|*> <resource|*> @ <server|*> {
//	    spatial  <SRAC constraint>          # optional
//	    mode     <admissible | strict>      # optional (see SpatialMode)
//	    duration <seconds | 30s | 5m | 2h | inf>   # optional
//	    scheme   <global | per-server>      # optional
//	    describe <free text>                # optional
//	}
//	grant <role> <perm>
//	class <id> <duration> <scheme> <perm> [<perm>...]   # pooled validity
//
// Example:
//
//	role auditor
//	permission p-audit read module-a @ * {
//	    spatial  [read dep-1 @ *] >> [read module-a @ *]
//	    duration 10m
//	    scheme   global
//	}
//	grant auditor p-audit
//
// Policy text outside comments must be valid UTF-8: an ID travels in
// JSON credentials, which cannot carry other bytes. LoadPolicy keeps no
// line of the policy past the load: each ID it hands on is a string of
// its own, one per distinct ID however many lines name it.
func LoadPolicy(e *Engine, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	var badText error
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(stripComment(sc.Text()))
			if !utf8.ValidString(line) {
				badText = policyErr(lineNo, "text is not valid UTF-8")
				return "", false
			}
			if line != "" {
				return line, true
			}
		}
		return "", false
	}
	// ids interns the IDs of the load, so the policy keeps one string
	// per distinct ID and none that pins the line it was read from. A
	// user ID is cloned instead: the registry keys each user by the
	// string of the last line that named it, so it keeps one string
	// either way, and a map of thousands of device IDs made the load
	// slower (EXPERIMENTS E33).
	ids := map[string]string{}
	id := func(s string) string {
		if c, ok := ids[s]; ok {
			return c
		}
		c := strings.Clone(s)
		ids[c] = c
		return c
	}
	var fields []string
	for {
		line, ok := next()
		if !ok {
			if badText != nil {
				return badText
			}
			break
		}
		fields = appendFields(fields[:0], line)
		switch fields[0] {
		case "user":
			if len(fields) != 2 {
				return policyErr(lineNo, "user takes one argument")
			}
			if err := e.RBAC.AddUser(rbac.UserID(strings.Clone(fields[1]))); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "role":
			if len(fields) != 2 {
				return policyErr(lineNo, "role takes one argument")
			}
			if err := e.RBAC.AddRole(rbac.RoleID(id(fields[1]))); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "assign":
			if len(fields) != 3 {
				return policyErr(lineNo, "assign takes user and role")
			}
			if err := e.RBAC.AssignUserRole(rbac.UserID(strings.Clone(fields[1])), rbac.RoleID(id(fields[2]))); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "inherit":
			if len(fields) != 3 {
				return policyErr(lineNo, "inherit takes senior and junior roles")
			}
			if err := e.RBAC.AddInheritance(rbac.RoleID(id(fields[1])), rbac.RoleID(id(fields[2]))); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "ssd", "dsd":
			if len(fields) < 5 {
				return policyErr(lineNo, "%s takes name, cardinality and at least two roles", fields[0])
			}
			card, err := strconv.Atoi(fields[2])
			if err != nil {
				return policyErr(lineNo, "bad cardinality %q", fields[2])
			}
			roles := make([]rbac.RoleID, 0, len(fields)-3)
			for _, f := range fields[3:] {
				roles = append(roles, rbac.RoleID(id(f)))
			}
			c := rbac.SoD{Name: id(fields[1]), Cardinality: card, Roles: roles}
			if fields[0] == "ssd" {
				err = e.RBAC.AddSSD(c)
			} else {
				err = e.RBAC.AddDSD(c)
			}
			if err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "class":
			// class <id> <duration> <scheme> <perm> [<perm>...]
			if len(fields) < 5 {
				return policyErr(lineNo, "class takes id, duration, scheme and at least one permission")
			}
			dur, err := ParseDuration(fields[2])
			if err != nil {
				return policyErr(lineNo, "%v", err)
			}
			var scheme temporal.Scheme
			switch fields[3] {
			case "global":
				scheme = temporal.GlobalBase
			case "per-server":
				scheme = temporal.PerServerBase
			default:
				return policyErr(lineNo, "unknown scheme %q (want global or per-server)", fields[3])
			}
			members := make([]rbac.PermID, 0, len(fields)-4)
			for _, f := range fields[4:] {
				members = append(members, rbac.PermID(id(f)))
			}
			if err := e.DefineClass(Class{
				ID: ClassID(id(fields[1])), Duration: dur, Scheme: scheme, Members: members,
			}); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "grant":
			if len(fields) != 3 {
				return policyErr(lineNo, "grant takes role and permission")
			}
			if err := e.RBAC.GrantPermission(rbac.RoleID(id(fields[1])), rbac.PermID(id(fields[2]))); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		case "permission":
			ps, err := parsePermission(fields, next, id)
			if badText != nil {
				return badText
			}
			if err != nil {
				return policyErr(lineNo, "%v", err)
			}
			if err := e.DefinePermission(ps); err != nil {
				return policyErr(lineNo, "%v", err)
			}
		default:
			return policyErr(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("core: policy read: %w", err)
	}
	return nil
}

// LoadPolicyString is LoadPolicy over a string.
func LoadPolicyString(e *Engine, src string) error {
	return LoadPolicy(e, strings.NewReader(src))
}

func policyErr(line int, format string, args ...any) error {
	return fmt.Errorf("core: policy line %d: %s", line, fmt.Sprintf(format, args...))
}

// appendFields appends the fields of s, split as strings.Fields splits
// them, to dst: a load reuses one slice for every line.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

// parsePermission parses the "permission ... { ... }" block from the
// header's fields, taking the block's lines from next and each ID
// through id. The header is "permission <id> <op> <resource> @ <server>
// {"; the body directives are spatial, duration, scheme, describe.
func parsePermission(fields []string, next func() (string, bool), id func(string) string) (PermSpec, error) {
	var ps PermSpec
	// permission id op resource @ server [ { ]
	if len(fields) < 6 {
		return ps, fmt.Errorf("permission header needs: permission <id> <op> <resource> @ <server> {")
	}
	if fields[4] != "@" {
		return ps, fmt.Errorf("permission header missing @ before server")
	}
	ps.Perm = rbac.Permission{
		ID:       rbac.PermID(id(fields[1])),
		Op:       model.Operation(id(star(fields[2]))),
		Resource: model.ResourceID(id(star(fields[3]))),
		Server:   model.ServerID(id(star(fields[5]))),
	}
	hasBrace := len(fields) >= 7 && fields[6] == "{"
	if !hasBrace {
		// Bare permission without a constraint block.
		if len(fields) != 6 {
			return ps, fmt.Errorf("unexpected tokens after permission header")
		}
		return ps, nil
	}
	for {
		line, ok := next()
		if !ok {
			return ps, fmt.Errorf("unterminated permission block for %q", ps.Perm.ID)
		}
		if line == "}" {
			return ps, nil
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch key {
		case "spatial":
			c, err := srac.Parse(strings.Clone(rest))
			if err != nil {
				return ps, fmt.Errorf("spatial constraint: %w", err)
			}
			ps.Spatial = c
		case "duration":
			d, err := ParseDuration(rest)
			if err != nil {
				return ps, err
			}
			ps.Duration = d
		case "scheme":
			switch rest {
			case "global":
				ps.Scheme = temporal.GlobalBase
			case "per-server":
				ps.Scheme = temporal.PerServerBase
			default:
				return ps, fmt.Errorf("unknown scheme %q (want global or per-server)", rest)
			}
		case "mode":
			switch rest {
			case "admissible":
				ps.Mode = Admissible
			case "strict":
				ps.Mode = Strict
			default:
				return ps, fmt.Errorf("unknown mode %q (want admissible or strict)", rest)
			}
		case "describe":
			ps.Perm.Description = strings.Clone(rest)
		default:
			return ps, fmt.Errorf("unknown permission directive %q", key)
		}
	}
}

func star(s string) string {
	if s == "*" {
		return ""
	}
	return s
}

// ParseDuration parses a validity duration: a plain number of seconds,
// a number with an s/m/h suffix, or "inf" for time-insensitive.
func ParseDuration(s string) (float64, error) {
	if s == "inf" {
		return temporal.Infinite, nil
	}
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, num = 1e-3, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		num = strings.TrimSuffix(s, "s")
	case strings.HasSuffix(s, "m"):
		mult, num = 60, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "h"):
		mult, num = 3600, strings.TrimSuffix(s, "h")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad duration %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("core: negative duration %q", s)
	}
	return v * mult, nil
}

// FormatDuration renders a duration in the policy format.
func FormatDuration(d float64) string {
	if d == temporal.Infinite {
		return "inf"
	}
	switch {
	case d >= 3600 && d == float64(int(d/3600))*3600:
		return fmt.Sprintf("%gh", d/3600)
	case d >= 60 && d == float64(int(d/60))*60:
		return fmt.Sprintf("%gm", d/60)
	default:
		return fmt.Sprintf("%gs", d)
	}
}
