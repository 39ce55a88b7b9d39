package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestConfigFileFaultSettings: fault rates given in a -config file and
// the same rates given as -fault-* flags are two spellings of one run
// (DESIGN.md §7), so both must render the same bytes, and neither may
// render the fault-free figure. The fault and invariant flags apply
// only when set; their defaults must not overwrite the file's values.
func TestConfigFileFaultSettings(t *testing.T) {
	cfg := config.Scaled()
	cfg.WeakRowRate, cfg.MigFailRate = 0.5, 0.5
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		base := []string{"-fig", "7b", "-benchmarks", "mcf", "-instr", "100000"}
		if err := run(append(base, args...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	file := render("-config", path)
	flags := render("-fault-weak", "0.5", "-fault-migfail", "0.5")
	clean := render()
	if file != flags {
		t.Errorf("config-file faults render differently from the same faults as flags:\nfile:\n%s\nflags:\n%s", file, flags)
	}
	if file == clean {
		t.Errorf("config-file fault settings were dropped: output equals the fault-free run:\n%s", file)
	}
}
