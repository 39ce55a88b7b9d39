package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
)

// The stream golden pins the exact DRAM command stream — every
// (time, command, channel, rank, bank, row) tuple at issue order — for a
// spread of small fixed-seed runs. This is a stronger check than the
// figure goldens: a figure can survive a reordering that cancels out in
// the averages, but the stream digest cannot. scripts/check.sh runs
// this test under both the default next-event scheduler and the
// mc_polltick per-cycle poller against the same committed file, which
// is the equivalence proof for the two controller scheduling modes.
// Regenerate (under the default build only) with:
//
//	go test ./internal/exp -run TestGoldenCommandStreams -update

// streamCase is one system variant whose command stream gets pinned.
type streamCase struct {
	name       string
	design     core.Design
	benchmarks []string
	seed       uint64
	closedPage bool
}

func streamCases() []streamCase {
	return []streamCase{
		{"standard/mcf", core.Standard, []string{"mcf"}, 42, false},
		{"das/mcf", core.DAS, []string{"mcf"}, 42, false},
		{"dasfm/libquantum", core.DASFM, []string{"libquantum"}, 7, false},
		{"fs/lbm/closed", core.FS, []string{"lbm"}, 42, true},
		{"sas/mcf", core.SAS, []string{"mcf"}, 42, false},
		{"charm/soplex", core.CHARM, []string{"soplex"}, 42, false},
		{"das/mcf+soplex", core.DAS, []string{"mcf", "soplex"}, 42, false},
	}
}

// caseConfig builds the run configuration for a stream case.
func caseConfig(sc streamCase) config.Config {
	cfg := tinyConfig()
	cfg.InstrPerCore = 60_000
	cfg.Cores = len(sc.benchmarks)
	cfg.Seed = sc.seed
	cfg.ClosedPage = sc.closedPage
	return cfg
}

// caseStatic computes the static assignment a case needs (nil for
// dynamic designs).
func caseStatic(t *testing.T, cfg config.Config, sc streamCase) *core.StaticAssignment {
	t.Helper()
	if !sc.design.Static() {
		return nil
	}
	prof, err := ProfilePass(cfg, sc.benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	return core.BuildStaticAssignment(prof, cfg.Geometry(), cfg.FastDenom)
}

// digestRun attaches a command log to sys, runs it, and returns the
// command count and FNV-1a digest over the raw tuple stream.
func digestRun(t *testing.T, sys *System, name string) (uint64, uint64) {
	t.Helper()
	h := fnv.New64a()
	var buf [48]byte
	var count uint64
	sys.Dev.SetCommandLog(func(at sim.Time, kind dram.CommandKind, channel, rank, bank, row int) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], uint64(kind))
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(channel)))
		binary.LittleEndian.PutUint64(buf[24:], uint64(int64(rank)))
		binary.LittleEndian.PutUint64(buf[32:], uint64(int64(bank)))
		binary.LittleEndian.PutUint64(buf[40:], uint64(int64(row)))
		h.Write(buf[:])
		count++
	})
	if _, err := sys.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return count, h.Sum64()
}

// streamDigest builds one case fresh, runs it with a command log
// attached and returns the command count and the FNV-1a digest over the
// raw tuple stream.
func streamDigest(t *testing.T, sc streamCase) (uint64, uint64) {
	t.Helper()
	cfg := caseConfig(sc)
	sys, _, err := Build(cfg, sc.design, sc.benchmarks, caseStatic(t, cfg, sc), false)
	if err != nil {
		t.Fatal(err)
	}
	return digestRun(t, sys, sc.name)
}

// TestGoldenCommandStreams pins the command-stream digest of every
// stream case: all five managed designs plus the Standard baseline,
// open- and closed-page controllers, and a multi-programmed mix.
func TestGoldenCommandStreams(t *testing.T) {
	var b strings.Builder
	for _, sc := range streamCases() {
		n, sum := streamDigest(t, sc)
		fmt.Fprintf(&b, "%-18s commands=%-7d fnv64a=%016x\n", sc.name, n, sum)
	}
	goldenCompare(t, "golden_streams.txt", b.String())
}
