package exp

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// instrDigest hashes the first n instructions of gen with FNV-1a: per
// instruction one flag byte (Mem, Write, Dependent in bits 0-2), then
// the little-endian address for memory ops.
func instrDigest(gen workload.Generator, n int) string {
	h := fnv.New64a()
	block := make([]workload.Instr, 4096)
	buf := make([]byte, 0, 9*len(block))
	for n > 0 {
		b := block[:min(n, len(block))]
		gen.Fill(b)
		n -= len(b)
		buf = buf[:0]
		for _, in := range b {
			var flags byte
			if in.Mem {
				flags |= 1
			}
			if in.Write {
				flags |= 2
			}
			if in.Dependent {
				flags |= 4
			}
			buf = append(buf, flags)
			if in.Mem {
				a := in.Addr
				buf = append(buf, byte(a), byte(a>>8), byte(a>>16), byte(a>>24),
					byte(a>>32), byte(a>>40), byte(a>>48), byte(a>>56))
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorStreamDigests pins the first 4M instructions of every
// benchmark's stream on cores 0 and 1 of a two-core Scaled system. The
// digests were computed with the one-instruction float-compare
// generator that preceded the block kernel, so they prove the kernel
// (integer thresholds, masked local draws, block state in locals)
// generates the same streams.
func TestGeneratorStreamDigests(t *testing.T) {
	want := map[string][2]string{
		"astar":      {"43f2d32aa585e982", "b29ecb025221c512"},
		"cactusADM":  {"0739a1175b0c9e0c", "fe24fc558725e843"},
		"GemsFDTD":   {"be46a398b83cf28d", "c7e01be6fe6145ff"},
		"lbm":        {"f9521e538e474221", "cb22ec2432838841"},
		"leslie3d":   {"f5a8cbfe825ddfe2", "c1dc199029b038b8"},
		"libquantum": {"62d011668327df87", "ceadb653c64573d8"},
		"mcf":        {"07e1161533c9192c", "0c95a8da1ebdc6a2"},
		"milc":       {"ddb1181ae555d12f", "b9e75fb9e1d642c6"},
		"omnetpp":    {"880c4bba19c75b61", "f8be2ce36dfc4514"},
		"soplex":     {"5b0f99e37473e5c9", "7e70e5084392c0a3"},
	}
	cfg := config.Scaled()
	cfg.Cores = 2
	for _, name := range workload.AllSingleNames() {
		for idx := 0; idx < 2; idx++ {
			gen, err := MakeGenerator(cfg, name, idx)
			if err != nil {
				t.Fatal(err)
			}
			if got := instrDigest(gen, 4_000_000); got != want[name][idx] {
				t.Errorf("%s core %d: stream digest %s, want %s", name, idx, got, want[name][idx])
			}
		}
	}
}

// refProfilePass is the decode-per-access profiling loop the block pass
// replaced: one Next, one Decode and one RowID per memory op, counted
// through RowProfile.Record.
func refProfilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	geom := cfg.Geometry()
	prof := core.NewRowProfile()
	var in workload.Instr
	for i, name := range benchmarks {
		gen, err := MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, err
		}
		n := cfg.InstrPerCore * ProfileWindowFactor
		for k := uint64(0); k < n; k++ {
			gen.Next(&in)
			if in.Mem {
				prof.Record(geom.RowID(geom.Decode(in.Addr)))
			}
		}
	}
	return prof, nil
}

// TestProfilePassMatchesReference compares every row count of the
// profile, not only the rows the static designs end up picking (which
// is all the command-stream goldens see), against the reference loop
// for every benchmark and two mixes, on the Scaled geometry and on a
// one-channel geometry whose row bits sit lower in the address.
func TestProfilePassMatchesReference(t *testing.T) {
	scaled := config.Scaled()
	scaled.InstrPerCore = 20_000
	narrow := scaled
	narrow.Channels = 1
	narrow.RowsPerBank = 512
	sets := [][]string{}
	for _, name := range workload.AllSingleNames() {
		sets = append(sets, []string{name})
	}
	for _, mix := range []string{"M1", "M8"} {
		m, err := workload.LookupMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, m.Benchmarks)
	}
	for _, base := range []config.Config{scaled, narrow} {
		geom := base.Geometry()
		for _, set := range sets {
			cfg := base
			cfg.Cores = len(set)
			got, err := ProfilePass(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refProfilePass(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows() != want.Rows() {
				t.Errorf("%d rows/bank %v: %d distinct rows, want %d", geom.Rows, set, got.Rows(), want.Rows())
			}
			for r := uint64(0); r < geom.TotalRows(); r++ {
				if g, w := got.Count(r), want.Count(r); g != w {
					t.Errorf("%d rows/bank %v: row %d counted %d, want %d", geom.Rows, set, r, g, w)
					break
				}
			}
		}
	}
}

// TestStaticMemoBoundedByBytes builds more distinct assignments (one
// per seed) through a memo than its byte budget holds. The memo must
// keep the newest ones, retain no more bytes than the budget, and
// account exactly for the assignments it keeps; an assignment larger
// than the budget is returned but not kept, and so is a failed pass.
func TestStaticMemoBoundedByBytes(t *testing.T) {
	cfg := config.Scaled()
	cfg.InstrPerCore = 1000
	size := int64(cfg.Geometry().TotalRows()) / 8 // one bit per row
	const kept, runs = 3, 5
	memo := staticMemo{maxBytes: kept*size + size/2}
	built := make([]*core.StaticAssignment, runs)
	for i := range built {
		cfg.Seed = uint64(i + 1)
		a, err := memo.assignment(cfg, []string{"mcf"})
		if err != nil {
			t.Fatal(err)
		}
		built[i] = a
		if memo.bytes > memo.maxBytes {
			t.Fatalf("after %d assignments the memo retains %d B, over its %d B budget", i+1, memo.bytes, memo.maxBytes)
		}
	}
	if len(memo.m) != kept || len(memo.order) != kept || memo.bytes != kept*size {
		t.Fatalf("memo keeps %d assignments (%d keys) and counts %d B; want %d assignments of %d B",
			len(memo.m), len(memo.order), memo.bytes, kept, size)
	}
	for i, want := range built {
		cfg.Seed = uint64(i + 1)
		_, hit := memo.m[staticKey{cfg, "mcf"}]
		if newest := i >= runs-kept; hit != newest {
			t.Errorf("seed %d: kept %v, want %v (the newest %d are kept)", cfg.Seed, hit, newest, kept)
		}
		if hit {
			if got, _ := memo.assignment(cfg, []string{"mcf"}); got != want {
				t.Errorf("seed %d: a kept assignment was rebuilt", cfg.Seed)
			}
		}
	}

	small := staticMemo{maxBytes: size - 1}
	if _, err := small.assignment(cfg, []string{"mcf"}); err != nil {
		t.Fatal(err)
	}
	if len(small.m) != 0 || small.bytes != 0 {
		t.Fatalf("a %d B memo kept a %d B assignment (%d B counted)", small.maxBytes, size, small.bytes)
	}
	before := memo.bytes
	if _, err := memo.assignment(cfg, []string{"nosuchbench"}); err == nil {
		t.Fatal("a pass over an unknown benchmark succeeded")
	}
	if len(memo.m) != kept || memo.bytes != before {
		t.Fatalf("a failed pass was kept: %d entries, %d B", len(memo.m), memo.bytes)
	}
}

// TestStaticMemoSharedByConcurrentCallers asks one cold memo for one
// key from many goroutines at once, as a parallel grid's SAS and CHARM
// cells do: they must all get the one assignment, kept once.
func TestStaticMemoSharedByConcurrentCallers(t *testing.T) {
	cfg := tinyConfig()
	memo := staticMemo{maxBytes: staticMemoBytes}
	got := make([]*core.StaticAssignment, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := memo.assignment(cfg, []string{"mcf", "soplex"})
			if err != nil {
				t.Error(err)
			}
			got[i] = a
		}()
	}
	wg.Wait()
	for i, a := range got {
		if a == nil || a != got[0] {
			t.Fatalf("caller %d got assignment %p, caller 0 got %p", i, a, got[0])
		}
	}
	if len(memo.order) != 1 || memo.bytes != assignmentBytes(&cfg) {
		t.Fatalf("the memo kept %d entries of %d B in all", len(memo.order), memo.bytes)
	}
}

// BenchmarkProfilePass times one unmemoized profiling pass: mcf at 1M
// instructions per core on the Scaled configuration, 19M generated
// instructions. check.sh gates it against BENCH_profile.json.
func BenchmarkProfilePass(b *testing.B) {
	cfg := config.Scaled()
	cfg.InstrPerCore = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ProfilePass(cfg, []string{"mcf"}); err != nil {
			b.Fatal(err)
		}
	}
}
