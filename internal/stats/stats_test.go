package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGmean(t *testing.T) {
	if g, err := GmeanErr([]float64{2, 8}); err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("gmean(2,8) = %v, %v", g, err)
	}
	if g, err := GmeanErr([]float64{1, 1, 1}); err != nil || g != 1 {
		t.Fatalf("gmean of ones = %v, %v", g, err)
	}
	if g, err := GmeanErr(nil); err != nil || g != 0 {
		t.Fatalf("gmean of empty = %v, %v", g, err)
	}
}

func TestGmeanErr(t *testing.T) {
	if g, err := GmeanErr([]float64{2, 8}); err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("GmeanErr(2,8) = %v, %v", g, err)
	}
	if g, err := GmeanErr(nil); err != nil || g != 0 {
		t.Fatalf("GmeanErr(empty) = %v, %v", g, err)
	}
	for _, bad := range [][]float64{{1, 0}, {1, -2}, {math.NaN()}} {
		if _, err := GmeanErr(bad); err == nil {
			t.Errorf("GmeanErr(%v) returned no error", bad)
		}
	}
	// The error names the offending value and index for diagnosis.
	_, err := GmeanErr([]float64{1, 2, -3})
	if err == nil || !strings.Contains(err.Error(), "-3") || !strings.Contains(err.Error(), "index 2") {
		t.Fatalf("error lacks value/index context: %v", err)
	}
	if _, err := GmeanImprovementErr([]float64{1.1, 0}); err == nil {
		t.Fatal("GmeanImprovementErr accepted a zero ratio")
	}
	if imp, err := GmeanImprovementErr([]float64{1.1, 1.21}); err != nil || imp <= 0 {
		t.Fatalf("GmeanImprovementErr = %v, %v", imp, err)
	}
}

func TestGmeanImprovement(t *testing.T) {
	// Two workloads at +10% and +21% -> gmean ratio 1.1533... -> 15.3%.
	got, err := GmeanImprovementErr([]float64{1.10, 1.21})
	want := (math.Sqrt(1.10*1.21) - 1) * 100
	if err != nil || math.Abs(got-want) > 1e-9 {
		t.Fatalf("improvement %v, %v, want %v", got, err, want)
	}
}

func TestGmeanBetweenMinMaxProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v)/1000 + 0.5
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g, err := GmeanErr(xs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestDist(t *testing.T) {
	d := Dist{RowBuffer: 50, Fast: 30, Slow: 20}
	rb, f, s := d.Fractions()
	if rb != 0.5 || f != 0.3 || s != 0.2 {
		t.Fatalf("fractions %v %v %v", rb, f, s)
	}
	if d.Total() != 100 {
		t.Fatalf("total %d", d.Total())
	}
	if m := d.FastLevelMissRatio(); m != 0.4 {
		t.Fatalf("fast-level miss ratio %v, want 0.4 (20 of 50 opens)", m)
	}
	var empty Dist
	rb, f, s = empty.Fractions()
	if rb != 0 || f != 0 || s != 0 || empty.FastLevelMissRatio() != 0 {
		t.Fatal("empty dist must be all zeros")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-longer", "22")
	out := tbl.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "beta-longer") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows = 5 lines
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and rows share the first column width.
	if !strings.HasPrefix(lines[2], "----") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.1234) != "12.34%" {
		t.Fatalf("percent formatting: %s", Percent(0.1234))
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("sorted keys: %v", keys)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("x,y", `q"z`)
	tbl.AddRow("plain", "2")
	got := tbl.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\nplain,2\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; input must not be mutated
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.95, 5}, {1, 5},
	}
	for _, c := range cases {
		if got, err := PercentileErr(xs, c.q); err != nil || got != c.want {
			t.Errorf("PercentileErr(%v, %v) = %v, %v, want %v", xs, c.q, got, err, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("PercentileErr mutated its input: %v", xs)
	}
	// Nearest rank returns an actual observation.
	if got, _ := PercentileErr(xs, 0.73); got != 4 {
		t.Errorf("p73 of 1..5 = %v, want 4 (ceil(0.73*5) = 4th)", got)
	}
}

func TestPercentileErr(t *testing.T) {
	cases := []struct {
		name    string
		xs      []float64
		q       float64
		want    float64
		wantErr bool
	}{
		{name: "empty", xs: nil, q: 0.5, wantErr: true},
		{name: "empty slice", xs: []float64{}, q: 0.99, wantErr: true},
		{name: "single p0", xs: []float64{7}, q: 0, want: 7},
		{name: "single p50", xs: []float64{7}, q: 0.5, want: 7},
		{name: "single p100", xs: []float64{7}, q: 1, want: 7},
		{name: "duplicates p50", xs: []float64{2, 2, 2, 2}, q: 0.5, want: 2},
		{name: "duplicates mixed", xs: []float64{1, 3, 3, 3, 9}, q: 0.5, want: 3},
		{name: "duplicates p99", xs: []float64{1, 3, 3, 3, 9}, q: 0.99, want: 9},
		{name: "zero value is data", xs: []float64{0, 0}, q: 0.95, want: 0},
		{name: "clamp low", xs: []float64{4, 8}, q: -1, want: 4},
		{name: "clamp high", xs: []float64{4, 8}, q: 2, want: 8},
	}
	for _, c := range cases {
		got, err := PercentileErr(c.xs, c.q)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: PercentileErr(%v, %v) = %v, want error", c.name, c.xs, c.q, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: PercentileErr(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
}
