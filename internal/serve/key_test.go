package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
)

// tinyConfig mirrors internal/exp's test configuration: small enough
// that real-simulation tests stay fast.
func tinyConfig() config.Config {
	c := config.Scaled()
	c.RowsPerBank = 256 // 64 MB
	c.InstrPerCore = 200_000
	c.TagCacheKB = 4
	return c
}

func mustJob(t *testing.T, req Request) *Job {
	t.Helper()
	j, err := Canonicalize(req, tinyConfig())
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", req, err)
	}
	return j
}

// TestKeyCanonicalization is the exactness-of-identity half of the
// caching argument: requests that mean the same simulation must produce
// equal keys no matter how their JSON is spelled.
func TestKeyCanonicalization(t *testing.T) {
	base := mustJob(t, Request{Figure: "7a"})

	// Whitespace and field order in the config cannot split the cache.
	spellings := []string{
		`{"seed": 42, "instr_per_core": 100000}`,
		`{"instr_per_core":100000,"seed":42}`,
		"{\n\t\"instr_per_core\": 100000,\n\t\"seed\": 42\n}",
	}
	var want *Job
	for i, s := range spellings {
		j := mustJob(t, Request{Figure: "7a", Config: json.RawMessage(s)})
		if i == 0 {
			want = j
			if j.Key == base.Key {
				t.Fatal("seed/instr override did not change the key")
			}
			continue
		}
		if j.Key != want.Key || j.Hash != want.Hash {
			t.Fatalf("spelling %d split the cache:\n  %s\nvs\n  %s", i, j.Key, want.Key)
		}
	}

	// Spelling a default explicitly is the same request as omitting it.
	cfgJSON, err := json.Marshal(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	explicit := mustJob(t, Request{Figure: "7a", Config: cfgJSON})
	if explicit.Key != base.Key {
		t.Fatalf("explicit defaults split the cache:\n  %s\nvs\n  %s", explicit.Key, base.Key)
	}

	// Figure-name case and padding normalize away.
	if j := mustJob(t, Request{Figure: "  7A "}); j.Key != base.Key {
		t.Fatal("figure-name case/space split the cache")
	}

	// A request from an older client may still carry the retired
	// "parallel" execution knob; unknown config fields are ignored, so it
	// must land on the same cache entry.
	par := mustJob(t, Request{Figure: "7a", Config: json.RawMessage(`{"parallel":2}`)})
	if par.Key != base.Key || par.Hash != base.Hash {
		t.Fatalf("retired parallel knob split the cache:\n  %s\nvs\n  %s", par.Key, base.Key)
	}
}

// TestKeyDistinguishes pins the other direction: anything that changes
// the simulation must change the key.
func TestKeyDistinguishes(t *testing.T) {
	ref := mustJob(t, Request{Design: "das", Benchmarks: []string{"mcf"}})
	distinct := []Request{
		{Design: "das", Benchmarks: []string{"mcf"}, Config: json.RawMessage(`{"seed": 7}`)},
		{Design: "charm", Benchmarks: []string{"mcf"}},
		{Design: "das", Benchmarks: []string{"lbm"}},
		{Design: "das", Benchmarks: []string{"mcf", "lbm"}},
		{Figure: "7a"},
		{Figure: "7b"},
		{Figure: "7a", Benchmarks: []string{"mcf"}},
		{Figure: "7a", Mixes: []string{"M1"}},
	}
	seen := map[string]int{ref.Key: -1}
	for i, req := range distinct {
		j := mustJob(t, req)
		if prev, dup := seen[j.Key]; dup {
			t.Fatalf("requests %d and %d collide on key %q", i, prev, j.Key)
		}
		seen[j.Key] = i
	}
	// Benchmark order is the core assignment, hence a different run.
	a := mustJob(t, Request{Design: "das", Benchmarks: []string{"mcf", "lbm"}})
	b := mustJob(t, Request{Design: "das", Benchmarks: []string{"lbm", "mcf"}})
	if a.Key == b.Key {
		t.Fatal("benchmark order must be part of the key")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct {
		req  Request
		want string
	}{
		{Request{}, "one of figure or design"},
		{Request{Figure: "7a", Design: "das"}, "mutually exclusive"},
		{Request{Figure: "fig99"}, "unknown figure"},
		{Request{Design: "warp9"}, "design"},
		{Request{Design: "das"}, "benchmarks"},
		{Request{Figure: "7a", Benchmarks: []string{"quake3"}}, "unknown benchmark"},
		{Request{Figure: "7a", Mixes: []string{"M99"}}, "M99"},
		{Request{Figure: "7a", Config: json.RawMessage(`{"seed":`)}, "config"},
		{Request{Figure: "7a", Config: json.RawMessage(`{"rows_per_bank": -1}`)}, ""},
	}
	for _, c := range cases {
		_, err := Canonicalize(c.req, tinyConfig())
		if err == nil {
			t.Fatalf("Canonicalize(%+v) accepted", c.req)
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Canonicalize(%+v) error %q does not mention %q", c.req, err, c.want)
		}
	}
}
