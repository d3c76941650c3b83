// Package reldb is an in-memory relational database with a SQL subset. It
// plays the role SQLite/PostgreSQL play in the iGDB paper: every iGDB
// relation (Figure 2) is a reldb table, and the paper's use-case analyses
// are expressed as self-contained SQL queries.
//
// Supported SQL: CREATE TABLE, CREATE INDEX, DROP TABLE, INSERT, DELETE,
// UPDATE, and SELECT with WHERE, INNER/LEFT JOIN (hash joins for
// equalities between columns of one type), GROUP BY + HAVING, aggregates
// (COUNT, COUNT DISTINCT, SUM, AVG, MIN, MAX), ORDER BY, LIMIT/OFFSET and
// DISTINCT. A hash index answers equality with a literal on its column,
// and serves as the hash table of a join on it. Each execution of a
// SELECT first binds it against the current tables: column references
// become row positions, operators op codes, aggregates slots accumulated
// per group, and ORDER BY aliases and ordinals the select items they
// name; no row looks a name up. It then runs as one push pipeline: each
// row the scan reads goes, on one reused joined row, through the filters
// and joins to its group or to the output, so an execution holds its
// joins' right sides, its groups' state and its output rows, and a LIMIT
// with nothing to order, deduplicate or aggregate stops the scan.
// Geometries are stored as WKT text, matching the paper's storage model.
package reldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type is a column type.
type Type int

// Column types. Affinity is loose, SQLite-style: values are coerced on
// insert when lossless, otherwise rejected.
const (
	TypeInt Type = iota
	TypeFloat
	TypeText
	TypeBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Value is a dynamically-typed SQL value. The zero Value is NULL.
type Value struct {
	kind valueKind
	i    int64
	f    float64
	s    string
	b    bool
}

type valueKind int

const (
	kindNull valueKind = iota
	kindInt
	kindFloat
	kindText
	kindBool
)

// Null is the SQL NULL value.
var Null = Value{}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: kindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: kindFloat, f: v} }

// Text wraps a string.
func Text(v string) Value { return Value{kind: kindText, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{kind: kindBool, b: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == kindNull }

// AsInt returns the value as int64 (coercing float/bool), with ok=false for
// NULL or text that is not a number.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case kindInt:
		return v.i, true
	case kindFloat:
		return int64(v.f), true
	case kindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case kindText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n, err == nil
	default:
		return 0, false
	}
}

// AsFloat returns the value as float64 where sensible.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case kindInt:
		return float64(v.i), true
	case kindFloat:
		return v.f, true
	case kindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case kindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsText returns the value rendered as a string (NULL renders empty, ok=false).
func (v Value) AsText() (string, bool) {
	switch v.kind {
	case kindText:
		return v.s, true
	case kindInt:
		return strconv.FormatInt(v.i, 10), true
	case kindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64), true
	case kindBool:
		if v.b {
			return "true", true
		}
		return "false", true
	default:
		return "", false
	}
}

// AsBool returns the value's truthiness: non-zero numbers and "true" are
// true; NULL is false with ok=false.
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case kindBool:
		return v.b, true
	case kindInt:
		return v.i != 0, true
	case kindFloat:
		return v.f != 0, true
	case kindText:
		return strings.EqualFold(v.s, "true") || v.s == "1", true
	default:
		return false, false
	}
}

// Interface returns the value as the native Go type JSON encoders expect:
// nil for NULL, int64, float64, string, or bool. Unlike the As* accessors it
// preserves the stored kind (Text("12") stays a string).
func (v Value) Interface() interface{} {
	switch v.kind {
	case kindInt:
		return v.i
	case kindFloat:
		return v.f
	case kindText:
		return v.s
	case kindBool:
		return v.b
	default:
		return nil
	}
}

// String renders the value for display.
func (v Value) String() string {
	if v.kind == kindNull {
		return "NULL"
	}
	s, _ := v.AsText()
	return s
}

// isNumeric reports whether the value holds a number.
func (v Value) isNumeric() bool { return v.kind == kindInt || v.kind == kindFloat }

// Compare orders two values: NULL < everything; numbers numerically; text
// lexicographically; bool false<true. Cross-kind number/text comparisons
// coerce text to number when possible, else compare type tags. Two
// integers compare exactly, beyond 2^53 too, so two integers are equal
// exactly when their keys are, as index lookups and hash joins need. NaN
// follows PostgreSQL: it equals NaN and is greater than every other
// number, so Compare is a total order on numbers and = agrees with NaN's
// key.
func Compare(a, b Value) int {
	if a.kind == kindNull || b.kind == kindNull {
		switch {
		case a.kind == kindNull && b.kind == kindNull:
			return 0
		case a.kind == kindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == kindInt && b.kind == kindInt {
		return cmp.Compare(a.i, b.i)
	}
	if a.isNumeric() && b.isNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return compareFloats(af, bf)
	}
	if a.kind == kindText && b.kind == kindText {
		return strings.Compare(a.s, b.s)
	}
	if a.kind == kindBool && b.kind == kindBool {
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		default:
			return 0
		}
	}
	// Mixed: try numeric coercion.
	if af, aok := a.AsFloat(); aok {
		if bf, bok := b.AsFloat(); bok {
			return compareFloats(af, bf)
		}
	}
	// Fall back to kind ordering for deterministic sorts.
	switch {
	case a.kind < b.kind:
		return -1
	case a.kind > b.kind:
		return 1
	default:
		return 0
	}
}

// compareFloats orders two numbers with NaN equal to itself and above
// every other number, -0 and 0 equal.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch aNaN, bNaN := math.IsNaN(a), math.IsNaN(b); {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	default:
		return -1
	}
}

// Equal reports SQL equality (NULL never equals anything, including NULL).
func Equal(a, b Value) bool {
	if a.kind == kindNull || b.kind == kindNull {
		return false
	}
	return Compare(a, b) == 0
}

// key returns a hashable representation for index/group-by use. Unlike SQL
// equality, NULLs group together (standard GROUP BY semantics).
func (v Value) key() string {
	return string(v.appendKey(nil))
}

// appendKey appends v's key bytes (the same encoding key returns) to b and
// returns the grown slice. Hot loops reuse one buffer across rows and look
// up maps with m[string(buf)], which the compiler keeps allocation-free.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case kindNull:
		return append(b, "\x00N"...)
	case kindInt:
		return strconv.AppendInt(append(b, '\x00', 'I'), v.i, 10)
	case kindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e15 {
			// Integral floats hash like ints so 1 and 1.0 group together.
			return strconv.AppendInt(append(b, '\x00', 'I'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(b, '\x00', 'F'), v.f, 'g', -1, 64)
	case kindText:
		return append(append(b, '\x00', 'T'), v.s...)
	case kindBool:
		if v.b {
			return append(b, "\x00B1"...)
		}
		return append(b, "\x00B0"...)
	default:
		return append(b, "\x00?"...)
	}
}

// like implements SQL LIKE with % and _ wildcards, case-insensitive (the
// common configuration for ASCII, matching SQLite's default).
func like(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Dynamic programming over pattern/string positions, iterative two-pointer
	// with backtracking on the last '%'.
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star != -1:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// coerce converts v for storage in a column of type t; error when lossy in a
// way that matters (text that isn't numeric into a numeric column).
func coerce(v Value, t Type) (Value, error) {
	if v.kind == kindNull {
		return v, nil
	}
	switch t {
	case TypeInt:
		if n, ok := v.AsInt(); ok {
			if v.kind == kindFloat && v.f != math.Trunc(v.f) {
				return Null, fmt.Errorf("reldb: cannot store non-integral %v in INTEGER column", v.f)
			}
			return Int(n), nil
		}
	case TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case TypeText:
		if s, ok := v.AsText(); ok {
			return Text(s), nil
		}
	case TypeBool:
		if b, ok := v.AsBool(); ok {
			return Bool(b), nil
		}
	}
	return Null, fmt.Errorf("reldb: cannot coerce %s to %s", v, t)
}
