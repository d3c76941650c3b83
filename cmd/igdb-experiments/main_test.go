package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	ids := func(only string) string {
		t.Helper()
		xs, err := selectExperiments(only)
		if err != nil {
			t.Fatalf("-only %q: %v", only, err)
		}
		var out []string
		for _, x := range xs {
			out = append(out, x.ID)
		}
		return strings.Join(out, ",")
	}
	if got := ids(""); strings.Count(got, ",") != 11 {
		t.Errorf("no -only selects %q, want all 12", got)
	}
	// Paper order, whatever order -only names them in, each once.
	if got := ids(" figure7,table1 ,figure7,"); got != "table1,figure7" {
		t.Errorf("-only selects %q, want table1,figure7", got)
	}
	_, err := selectExperiments("figure4,figure44,tabel1")
	if err == nil || !strings.Contains(err.Error(), "figure44, tabel1") {
		t.Errorf("unknown ids: err = %v, want both named", err)
	}
}

func TestScaleConfig(t *testing.T) {
	for _, scale := range []string{"small", "paper"} {
		if _, err := scaleConfig(scale); err != nil {
			t.Errorf("-scale %s: %v", scale, err)
		}
	}
	for _, scale := range []string{"large", "", "Paper"} {
		if _, err := scaleConfig(scale); err == nil {
			t.Errorf("-scale %q accepted", scale)
		}
	}
}
