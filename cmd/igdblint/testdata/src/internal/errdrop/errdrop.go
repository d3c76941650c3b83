// Package errdrop is igdblint golden-corpus input: error results that
// vanish into _ or statement position.
package errdrop

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
)

func fails() error { return errors.New("boom") }

func dropsAssign() {
	_ = fails() // want `errdrop: error result assigned to _`
}

func dropsTuple() int {
	n, _ := strconv.Atoi("7") // want `errdrop: error result assigned to _`
	return n
}

func dropsCall() {
	os.Remove("scratch") // want `errdrop: call discards its error result`
}

func handled() error {
	if err := fails(); err != nil {
		return fmt.Errorf("handled: %w", err)
	}
	return nil
}

func exemptWriters() string {
	var b bytes.Buffer
	b.WriteString("in-memory writers never fail")
	fmt.Fprintln(&b, "fmt to a buffer is exempt too")
	return b.String()
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{dropsAssign, dropsTuple, dropsCall, handled, exemptWriters}
