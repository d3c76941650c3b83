// Package logdisc is igdblint golden-corpus input: stdio logging from an
// internal package.
package logdisc

import (
	"fmt"
	"io"
	"log"
	"os"
)

func noisy(v int) {
	fmt.Println("progress:", v)         // want `logdiscipline: fmt.Println writes to process stdout`
	log.Printf("count=%d", v)           // want `logdiscipline: package log bypasses internal/obs`
	fmt.Fprintf(os.Stderr, "n=%d\n", v) // want `logdiscipline: fmt.Fprintf to os.Stderr bypasses internal/obs`
}

func quiet(w io.Writer, v int) {
	fmt.Fprintf(w, "n=%d\n", v) // a writer the caller chose is fine
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{noisy, quiet}
