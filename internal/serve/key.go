// Package serve is the simulation-as-a-service layer: it turns the
// deterministic experiment core (internal/exp) into a robust HTTP
// service with a bounded worker pool, singleflight deduplication,
// provably-exact result caching, overload shedding and graceful drain.
//
// The caching argument rests on two facts the rest of the repo already
// proves: (1) simulations are bit-deterministic in their configuration
// and seed (TestGoldenCommandStreams pins the DRAM command streams of
// all six designs), and (2) figure rendering is byte-stable golden
// output (internal/exp's golden tests). Canonicalizing a request
// therefore yields a key under which a cached body is not merely
// probably fresh but exactly the bytes a re-run would produce.
package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/telemetry/jobtrace"
	"repro/internal/workload"
)

// Request is the wire form of one simulation request. Exactly one of
// Figure or Design selects the work: a figure name regenerates that
// paper figure; a design name runs that single design over Benchmarks
// against its Standard baseline (the cheapest, most cacheable unit).
// Config, when present, is layered over the server's base configuration
// exactly like dasbench -config layers over the episode-scaled Table 1.
type Request struct {
	Figure     string          `json:"figure,omitempty"`
	Design     string          `json:"design,omitempty"`
	Benchmarks []string        `json:"benchmarks,omitempty"`
	Mixes      []string        `json:"mixes,omitempty"`
	Config     json.RawMessage `json:"config,omitempty"`
}

// Job is a canonicalized request: defaults made explicit, names
// normalized and validated, and the deterministic cache identity
// computed. Two requests that mean the same simulation produce equal
// Keys no matter how their JSON was spelled.
type Job struct {
	Figure     string      // normalized figure name ("" when Design is set)
	Design     core.Design // parsed design (valid only when HasDesign)
	HasDesign  bool
	Benchmarks []string
	Mixes      []string
	Cfg        config.Config

	// Key is the canonical identity: figure/design, benchmark and mix
	// lists, and the full canonical-JSON config (every field explicit,
	// struct-ordered — so field order, whitespace and omitted defaults
	// in the request cannot split the cache). Seed and every sweep knob
	// live inside the config, so they are part of the key by
	// construction.
	Key string
	// Hash is the 64-bit FNV-1a of Key: the job's compact identity for
	// logs, the X-Key response header and the ETag.
	Hash uint64

	// Prog and Trace are runtime attachments, not identity: the server
	// wires them on admission (Prog carries live counters to SSE
	// subscribers, Trace is the job's lifecycle span) and the runner
	// feeds them. Both are nil-safe throughout, so runners invoked
	// outside the server need no guards.
	Prog  *Progress      `json:"-"`
	Trace *jobtrace.Span `json:"-"`
}

// KeyHex is the job's compact identity as rendered in the X-Key header,
// the ETag, logs, and the /jobs/<key> URL path.
func (j *Job) KeyHex() string { return fmt.Sprintf("%016x", j.Hash) }

// KindString names the work: the figure name, or "design:<name>".
func (j *Job) KindString() string {
	if j.HasDesign {
		return "design:" + j.Design.String()
	}
	return j.Figure
}

// Canonicalize validates req against base (the server's default
// configuration) and computes its canonical cache identity. All
// validation errors are client errors (bad request).
func Canonicalize(req Request, base config.Config) (*Job, error) {
	j := &Job{Cfg: base}
	if len(req.Config) > 0 {
		// Layering over base and re-marshalling is the canonicalization:
		// json.Unmarshal tolerates any field order and whitespace, and
		// json.Marshal of the struct emits every field in declaration
		// order with defaults explicit.
		if err := json.Unmarshal(req.Config, &j.Cfg); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	figure := strings.ToLower(strings.TrimSpace(req.Figure))
	design := strings.TrimSpace(req.Design)
	switch {
	case figure != "" && design != "":
		return nil, fmt.Errorf("request: figure %q and design %q are mutually exclusive", figure, design)
	case figure == "" && design == "":
		return nil, fmt.Errorf("request: one of figure or design is required")
	case design != "":
		d, err := core.ParseDesign(design)
		if err != nil {
			return nil, err
		}
		j.Design, j.HasDesign = d, true
		if len(req.Benchmarks) == 0 {
			return nil, fmt.Errorf("request: design runs need a benchmarks list")
		}
	default:
		if !slices.Contains(exp.FigureNames(), figure) {
			return nil, fmt.Errorf("request: unknown figure %q (want one of %s)",
				figure, strings.Join(exp.FigureNames(), ", "))
		}
		j.Figure = figure
	}
	var err error
	if j.Benchmarks, err = workload.NormalizeBenchmarks(req.Benchmarks); err != nil {
		return nil, err
	}
	if j.Mixes, err = workload.NormalizeMixes(req.Mixes); err != nil {
		return nil, err
	}
	if j.HasDesign {
		// One core per benchmark, exactly like a session run.
		j.Cfg.Cores = len(j.Benchmarks)
	}
	if err := j.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(j.Cfg)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	j.Key = fmt.Sprintf("%s|b=%s|m=%s|%s",
		j.KindString(), strings.Join(j.Benchmarks, ","), strings.Join(j.Mixes, ","), cfgJSON)
	h := fnv.New64a()
	h.Write([]byte(j.Key))
	j.Hash = h.Sum64()
	return j, nil
}
