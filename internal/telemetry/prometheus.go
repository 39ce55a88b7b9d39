// Prometheus text exposition for Registry instruments.
//
// EncodePrometheus renders the classic text format (version 0.0.4:
// `# HELP` / `# TYPE` comments followed by samples) straight from the
// registry's live instruments — no intermediate Snapshot, so histograms
// keep their full bucket resolution instead of the flattened
// count/sum/p50/p99 view. Output is deterministic: families are sorted
// by exposition name, bucket bounds are the registry's fixed log2
// ladder, and floats render with strconv's shortest round-trip form.
// Two encodes of the same instrument state are byte-identical, which is
// what lets the /metrics tests diff repeated scrapes.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promFamily is one metric family staged for encoding.
type promFamily struct {
	name string // sanitized exposition name
	orig string // registry name, shown in HELP
	kind Kind
	val  float64    // counter/gauge/sampled value
	hist *Histogram // set for KindHistogram
}

// EncodePrometheus writes every instrument of regs (nil entries are
// skipped) to w in Prometheus text exposition format. Counters map to
// `counter`, gauges and sampled functions to `gauge`, histograms to
// native `histogram` families with cumulative le buckets, _sum and
// _count. Families are emitted in sorted exposition-name order; the
// caller must serialize access to the registries (instruments are
// single-threaded by contract).
func EncodePrometheus(w io.Writer, regs ...*Registry) error {
	var fams []promFamily
	seen := make(map[string]bool)
	add := func(f promFamily) {
		// Registries normally carry disjoint names; on a collision the
		// first family wins so the output stays valid exposition format.
		if seen[f.name] {
			return
		}
		seen[f.name] = true
		fams = append(fams, f)
	}
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, c := range r.counters {
			add(promFamily{name: promName(c.name), orig: c.name, kind: KindCounter, val: float64(c.v)})
		}
		for _, g := range r.gauges {
			add(promFamily{name: promName(g.name), orig: g.name, kind: KindGauge, val: float64(g.v)})
		}
		for _, s := range r.sampled {
			add(promFamily{name: promName(s.name), orig: s.name, kind: KindSampled, val: float64(s.fn())})
		}
		for _, h := range r.hists {
			add(promFamily{name: promName(h.name), orig: h.name, kind: KindHistogram, hist: h})
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		typ := "gauge"
		switch f.kind {
		case KindCounter:
			typ = "counter"
		case KindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.orig)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, typ)
		if f.kind != KindHistogram {
			fmt.Fprintf(bw, "%s %s\n", f.name, promFloat(f.val))
			continue
		}
		h := f.hist
		// Cumulative buckets over the fixed log2 ladder, truncated past
		// the highest non-empty bucket (the +Inf bucket always closes
		// the family and equals _count by construction).
		top := 0
		for i := 0; i < HistogramBuckets; i++ {
			if h.buckets[i] > 0 {
				top = i
			}
		}
		var cum uint64
		for i := 0; i <= top; i++ {
			cum += h.buckets[i]
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", f.name, promFloat(float64(BucketUpperBound(i))), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", f.name, h.count)
		fmt.Fprintf(bw, "%s_sum %d\n", f.name, h.sum)
		fmt.Fprintf(bw, "%s_count %d\n", f.name, h.count)
	}
	return bw.Flush()
}

// promName sanitizes a registry name ("serve.queue.wait_us") into a
// valid exposition metric name ("serve_queue_wait_us"): every rune
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_'
// prefix. The mapping is deterministic, so sorted registry names stay
// sorted families (dots sort like underscores for our metric set).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders v the way the exposition format expects: shortest
// round-trip decimal, with integral values as plain integers.
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateExposition checks data against the subset of the Prometheus
// text format EncodePrometheus emits, strictly enough to catch real
// regressions: every family opens with HELP then TYPE, family names are
// strictly increasing (deterministic ordering), sample names belong to
// the declared family, histogram buckets are cumulative with strictly
// increasing le bounds ending at +Inf, and the +Inf bucket equals
// _count. It is self-contained on purpose — the repo must not grow a
// client_model dependency just to test its own scrape output.
func ValidateExposition(data []byte) error {
	lines := strings.Split(string(data), "\n")
	type famState struct {
		name      string
		typ       string
		samples   int
		lastLe    float64
		lastCum   uint64
		infSeen   bool
		infVal    uint64
		countSeen bool
		count     uint64
	}
	var cur *famState
	var prevFam string
	closeFam := func() error {
		if cur == nil {
			return nil
		}
		if cur.samples == 0 {
			return fmt.Errorf("family %s: declared but has no samples", cur.name)
		}
		if cur.typ == "histogram" {
			if !cur.infSeen {
				return fmt.Errorf("family %s: histogram missing +Inf bucket", cur.name)
			}
			if !cur.countSeen {
				return fmt.Errorf("family %s: histogram missing _count", cur.name)
			}
			if cur.infVal != cur.count {
				return fmt.Errorf("family %s: +Inf bucket %d != _count %d", cur.name, cur.infVal, cur.count)
			}
		}
		cur = nil
		return nil
	}
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if err := closeFam(); err != nil {
				return err
			}
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			name := fields[0]
			if name == "" {
				return fmt.Errorf("line %d: HELP without a metric name", lineNo)
			}
			if prevFam != "" && name <= prevFam {
				return fmt.Errorf("line %d: family %s not strictly after %s (ordering must be deterministic)", lineNo, name, prevFam)
			}
			prevFam = name
			cur = &famState{name: name, lastLe: math.Inf(-1)}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			if cur == nil || cur.name != fields[0] {
				return fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, fields[0])
			}
			if cur.typ != "" {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, cur.name)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
				cur.typ = fields[1]
			default:
				return fmt.Errorf("line %d: unsupported type %q", lineNo, fields[1])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		// Sample line: name[{labels}] value
		if cur == nil || cur.typ == "" {
			return fmt.Errorf("line %d: sample before HELP/TYPE: %q", lineNo, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		nameAndLabels, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad sample value %q: %v", lineNo, valStr, err)
		}
		name := nameAndLabels
		labels := ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				return fmt.Errorf("line %d: unterminated label set %q", lineNo, nameAndLabels)
			}
			name, labels = nameAndLabels[:i], nameAndLabels[i+1:len(nameAndLabels)-1]
		}
		switch cur.typ {
		case "counter", "gauge":
			if name != cur.name {
				return fmt.Errorf("line %d: sample %s inside family %s", lineNo, name, cur.name)
			}
			if cur.typ == "counter" && val < 0 {
				return fmt.Errorf("line %d: counter %s is negative (%v)", lineNo, name, val)
			}
		case "histogram":
			switch name {
			case cur.name + "_bucket":
				le := strings.TrimPrefix(labels, "le=")
				le = strings.Trim(le, `"`)
				if le == "" {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				var bound float64
				if le == "+Inf" {
					bound = math.Inf(1)
				} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bad le bound %q: %v", lineNo, le, err)
				}
				if cur.infSeen {
					return fmt.Errorf("line %d: bucket after +Inf in %s", lineNo, cur.name)
				}
				if bound <= cur.lastLe {
					return fmt.Errorf("line %d: le bounds not strictly increasing in %s (%v after %v)", lineNo, cur.name, bound, cur.lastLe)
				}
				cum := uint64(val)
				if float64(cum) != val || val < 0 {
					return fmt.Errorf("line %d: bucket count %v is not a non-negative integer", lineNo, val)
				}
				if cum < cur.lastCum {
					return fmt.Errorf("line %d: bucket counts not cumulative in %s (%d after %d)", lineNo, cur.name, cum, cur.lastCum)
				}
				cur.lastLe, cur.lastCum = bound, cum
				if math.IsInf(bound, 1) {
					cur.infSeen, cur.infVal = true, cum
				}
			case cur.name + "_sum":
				// value may be any float
			case cur.name + "_count":
				cur.countSeen, cur.count = true, uint64(val)
			default:
				return fmt.Errorf("line %d: sample %s inside histogram family %s", lineNo, name, cur.name)
			}
		}
		cur.samples++
	}
	return closeFam()
}
