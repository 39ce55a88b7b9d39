package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// TestBenchmarkAndMixListsAreTrimmed: -benchmarks and -mixes entries
// are trimmed like -fig entries, so a spaced list renders the plain
// list's bytes, and an unknown name fails before any figure (or the
// -out file) is written. So does an unknown -fig name.
func TestBenchmarkAndMixListsAreTrimmed(t *testing.T) {
	render := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, c := range [][3]string{
		{"7b", "-benchmarks", "mcf,soplex"},
		{"7d", "-mixes", "M1,M8"},
	} {
		plain := render("-fig", c[0], c[1], c[2], "-instr", "20000")
		spaced := render("-fig", c[0], c[1], strings.ReplaceAll(c[2], ",", ", "), "-instr", "20000")
		if spaced != plain {
			t.Errorf("-fig %s %s: spaced list renders differently:\n%s\nplain:\n%s", c[0], c[1], spaced, plain)
		}
	}

	for _, c := range [][]string{
		{"-fig", "table1,7b", "-benchmarks", "mcf,foo"},
		{"-fig", "table1,nosuchfig"},
	} {
		var out strings.Builder
		outPath := filepath.Join(t.TempDir(), "out.txt")
		bad := strconv.Quote(strings.Split(c[len(c)-1], ",")[1])
		err := run(append(c, "-out", outPath), &out)
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%v: err = %v, want an error naming %s", c, err, bad)
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote %q before failing", c, out.String())
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Errorf("%v created the -out file (stat: %v)", c, err)
		}
	}
}

// TestNaNFaultRateRefused: a NaN fault rate fails every comparison, so
// it once passed the [0,1] check and ran with fault injection silently
// off. It must be refused before any output or the -out file.
func TestNaNFaultRateRefused(t *testing.T) {
	var out strings.Builder
	outPath := filepath.Join(t.TempDir(), "out.txt")
	err := run([]string{"-fig", "7a", "-benchmarks", "mcf", "-instr", "20000", "-fault-weak", "NaN", "-out", outPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "weak-row rate") {
		t.Errorf("-fault-weak NaN: err = %v, want the weak-row rate refused", err)
	}
	if out.Len() != 0 {
		t.Errorf("-fault-weak NaN wrote %q before failing", out.String())
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Errorf("-fault-weak NaN created the -out file (stat: %v)", err)
	}
}

// TestFigureAliases pins the -fig aliases, which expand from the exp
// catalog: all is every figure but energy and faults, and tables is
// the entries that run nothing.
func TestFigureAliases(t *testing.T) {
	for alias, want := range map[string][]string{
		"all":    {"table1", "table2", "area", "7a", "7b", "7c", "7d", "7e", "7f", "8", "9a", "9b", "9c", "9d", "power"},
		"tables": {"table1", "table2", "area"},
	} {
		if got := figureList(alias); !slices.Equal(got, want) {
			t.Errorf("-fig %s expands to %v, want %v", alias, got, want)
		}
	}
}
