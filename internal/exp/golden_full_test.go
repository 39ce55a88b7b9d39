//go:build golden_full

package exp

import (
	"os"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestGoldenResultsSingleFull regenerates the checked-in
// results_single.txt — Fig 7a/7b/7c plus the power comparison over all
// ten Table 2 benchmarks at 10M instructions per core, episode-scaled
// configuration, default seed — and asserts byte-identity. It takes
// 10-25 minutes single-threaded, so it hides behind both a build tag
// and -short:
//
//	go test -tags golden_full -run ResultsSingleFull -timeout 60m ./internal/exp
func TestGoldenResultsSingleFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full results_single.txt regeneration skipped in -short")
	}
	want, err := os.ReadFile("../../results_single.txt")
	if err != nil {
		t.Fatal(err)
	}

	cfg := config.Scaled()
	cfg.InstrPerCore = 10_000_000
	s := NewSession(cfg)
	var out strings.Builder
	for _, name := range []string{"7a", "7b", "7c", "power"} {
		fig, err := s.Figure(name)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(fig.Render())
	}

	got := out.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("results_single.txt: first divergence at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("results_single.txt: length differs: got %d lines, want %d", len(gl), len(wl))
}
