package unixbench

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
)

// quick returns a config that runs each benchmark at reduced scale.
func quick(overrides Config) Config {
	overrides.Seed = 11
	overrides.IterScale = 0.25
	return overrides
}

func TestAllBenchmarksComplete(t *testing.T) {
	if len(all) != 12 {
		t.Fatalf("got %d benchmarks, want 12", len(all))
	}
	for _, b := range all {
		r := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced}))
		if r.Outcome != kernel.OutcomeCompleted {
			t.Errorf("%s: outcome %v", r.Name, r.Outcome)
			continue
		}
		if r.Score <= 0 {
			t.Errorf("%s: score %v", r.Name, r.Score)
		}
		if r.Ops < r.Iters {
			t.Errorf("%s: completed %d/%d ops on a fault-free run", r.Name, r.Ops, r.Iters)
		}
	}
}

func TestMonolithicFasterOnSyscallHeavy(t *testing.T) {
	micro := RunOne(mustByName(t, "syscall"), quick(Config{Policy: seep.PolicyEnhanced}))
	mono := RunOne(mustByName(t, "syscall"), quick(Config{Monolithic: true, Instrumentation: memlog.Baseline}))
	if mono.Score <= micro.Score*2 {
		t.Fatalf("monolithic syscall score %.1f not ≫ microkernel %.1f", mono.Score, micro.Score)
	}
}

func TestComputeBenchInsensitiveToKernelModel(t *testing.T) {
	micro := RunOne(mustByName(t, "dhry2reg"), quick(Config{Policy: seep.PolicyEnhanced}))
	mono := RunOne(mustByName(t, "dhry2reg"), quick(Config{Monolithic: true, Instrumentation: memlog.Baseline}))
	ratio := mono.Score / micro.Score
	if ratio < 0.95 || ratio > 1.3 {
		t.Fatalf("dhry2reg mono/micro ratio = %.3f, want ~1 (compute-bound)", ratio)
	}
}

func TestInstrumentationOverheadOrdering(t *testing.T) {
	// Baseline >= optimized > unoptimized in score, for a
	// server-write-heavy benchmark.
	b := mustByName(t, "spawn")
	base := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced, Instrumentation: memlog.Baseline}))
	opt := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced, Instrumentation: memlog.Optimized}))
	unopt := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced, Instrumentation: memlog.Unoptimized}))
	if !(base.Score >= opt.Score && opt.Score > unopt.Score) {
		t.Fatalf("scores base %.1f, optimized %.1f, unoptimized %.1f violate ordering",
			base.Score, opt.Score, unopt.Score)
	}
	slowOpt := base.Score / opt.Score
	slowUnopt := base.Score / unopt.Score
	t.Logf("spawn slowdowns: optimized %.3fx, unoptimized %.3fx", slowOpt, slowUnopt)
	if slowUnopt < slowOpt*1.02 {
		t.Fatalf("unoptimized slowdown %.3f not clearly above optimized %.3f", slowUnopt, slowOpt)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) found something")
	}
	if len(Names()) != 12 {
		t.Fatalf("Names() = %d entries", len(Names()))
	}
}

func TestDeterministicScores(t *testing.T) {
	b := mustByName(t, "pipe")
	a := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced}))
	c := RunOne(b, quick(Config{Policy: seep.PolicyEnhanced}))
	if a.Cycles != c.Cycles {
		t.Fatalf("non-deterministic benchmark: %d != %d cycles", a.Cycles, c.Cycles)
	}
}

func mustByName(t *testing.T, name string) Benchmark {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	return b
}
