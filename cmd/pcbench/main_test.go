package main

import (
	"slices"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	ids, err := resolve([]string{"fig3", "table2"})
	if err != nil || !slices.Equal(ids, []string{"fig3", "table2"}) {
		t.Fatalf("resolve(fig3 table2) = %v, %v", ids, err)
	}

	// One typo rejects the whole command line, so nothing runs first.
	if _, err := resolve([]string{"fig3", "typo", "fig5"}); err == nil ||
		!strings.Contains(err.Error(), `"typo"`) || !strings.Contains(err.Error(), "pcbench list") {
		t.Fatalf("resolve(fig3 typo fig5) error = %v, want the bad id and the list hint", err)
	}

	all, err := resolve([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"table1-quick", "fig3-all", "fig4-all"} {
		if slices.Contains(all, variant) {
			t.Errorf("all includes the %s variant", variant)
		}
	}
	for _, want := range []string{"fig3", "table1", "table1-all21", "engine", "breakdown"} {
		if !slices.Contains(all, want) {
			t.Errorf("all omits %s", want)
		}
	}
}
