// Package directives is igdblint golden-corpus input: the //lint:ignore
// suppression directive itself.
package directives

import "os"

func suppressed() {
	//lint:ignore errdrop best-effort scratch cleanup; absence is fine
	os.Remove("scratch")
}

func notSuppressed() {
	// The directive above suppresses exactly one site: the same violation
	// here still fires.
	os.Remove("scratch") // want `errdrop: call discards its error result`
}

func badDirectives() {
	//lint:ignore typosquat this rule does not exist // want `directive: //lint:ignore names unknown rule "typosquat"`
	// want-next `directive: //lint:ignore errdrop needs a reason`
	//lint:ignore errdrop
	// want-next `directive: malformed //lint:ignore`
	//lint:ignore
	os.Remove("scratch") // want `errdrop: call discards its error result`
}

func unusedSuppression() {
	// A well-formed directive that suppresses nothing is dead weight: it
	// hides the next real finding on its line.
	// want-next `directive: //lint:ignore errdrop suppresses no finding; delete it`
	//lint:ignore errdrop nothing on this line drops an error
	_ = os.Getenv("HOME")
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{suppressed, notSuppressed, badDirectives, unusedSuppression}
