// Package callgraph is igdblint golden-corpus input for the callgraph
// dead-code rule. An unexported function nobody calls, nobody takes as a
// value, and no visible interface needs is dead code; interface dispatch,
// function values, method values and expressions, calls of generic
// instantiations, and direct calls all keep functions alive.
package callgraph

// renderer escapes through newBox, so implementations of render are
// reachable via interface dispatch.
type renderer interface {
	render() string
}

type box struct{ s string }

// render is never called directly, but satisfying renderer keeps it alive.
func (b box) render() string { return b.s }

func newBox(s string) renderer { return box{s: s} }

// helper is only reached through a function value.
func helper() int { return 1 }

func viaValue() int {
	f := helper
	return f()
}

// chained is reached by a direct call from viaCall.
func chained() int { return 2 }

func viaCall() int { return chained() }

type counter struct{ n int }

// inc is reached only through a method value.
func (c *counter) inc() { c.n++ }

func viaMethodValue(c *counter) func() { return c.inc }

// dec is reached only through a method expression.
func (c *counter) dec() { c.n-- }

func viaMethodExpr() func(*counter) { return (*counter).dec }

// first is generic and reached only through an instantiation whose type
// argument is inferred.
func first[T any](xs []T) T { return xs[0] }

func viaInference() int { return first([]int{4}) }

type stack[T any] struct{ items []T }

// push is a method of a generic type, called only on an instance.
func (s *stack[T]) push(x T) { s.items = append(s.items, x) }

func viaInstance() int {
	var s stack[int]
	s.push(5)
	return len(s.items)
}

// orphan has no callers, no value uses, and satisfies nothing visible.
func orphan() int { // want `callgraph: callgraph.orphan is never called, never taken as a value, and satisfies no visible interface; dead code`
	return 3
}

// The corpus exists to be linted, not linked into a program; these
// references keep the entry points themselves alive so only orphan is the
// finding.
var _ = []any{newBox, viaValue, viaCall, viaMethodValue, viaMethodExpr, viaInference, viaInstance}
