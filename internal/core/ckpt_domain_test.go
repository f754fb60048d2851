package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
)

// runDomainCkpt executes p on nodes workers over any domain with the given
// checkpoint manager (the generic counterpart of runWithCkpt, without
// fault injection).
func runDomainCkpt[V comparable](t *testing.T, g *graph.Graph, p *Program[V], nodes int, m *ckpt.Manager) ([]*Result[V], []error) {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := resumeFrom(m, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result[V], nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := New[V](Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part, Sched: testSched(t, 0), Ckpt: m, Restore: restore})
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
	}
	return results, errs
}

// f32Arith is a small float32 PageRank-style arith program for checkpoint
// tests.
func f32Arith() *Program[float32] {
	return &Program[float32]{
		Name:       "pr32-test",
		Agg:        Arith,
		InitValue:  func(g graph.View, v graph.VertexID) float32 { return 1 },
		GatherInit: 0,
		Gather:     func(acc, src float32, _ float32) float32 { return acc + src },
		Apply: func(g graph.View, v graph.VertexID, acc, _ float32) float32 {
			return 0.15 + 0.85*acc/float32(g.NumVertices())
		},
		MaxIters: 12,
	}
}

// u32MinMax is a BFS-style uint32 program for checkpoint tests.
func u32MinMax() *Program[uint32] {
	return &Program[uint32]{
		Name: "bfs32-test",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) uint32 {
			return map[bool]uint32{true: 0, false: U32Unreached}[v == 0]
		},
		Roots: []graph.VertexID{0},
		Relax: func(src uint32, _ float32) uint32 {
			if src >= U32Unreached-1 {
				return U32Unreached
			}
			return src + 1
		},
		Better: func(a, b uint32) bool { return a < b },
	}
}

// Checkpoints written by a narrow domain must round-trip: a resumed run
// reproduces the uninterrupted run's values bit for bit.
func TestCheckpointRoundTripNarrowDomains(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 47)

	t.Run("f32-arith", func(t *testing.T) {
		want, errs := runDomainCkpt(t, g, f32Arith(), 2, nil)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		m := &ckpt.Manager{Dir: t.TempDir(), Every: 3}
		if _, errs := runDomainCkpt(t, g, f32Arith(), 2, m); errs[0] != nil {
			t.Fatal(errs[0])
		}
		if latest, err := m.LatestComplete(2); err != nil || latest < 0 {
			t.Fatalf("no complete checkpoint: %d %v", latest, err)
		}
		m.Resume = true
		got, errs := runDomainCkpt(t, g, f32Arith(), 2, m)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got[0].Iterations >= want[0].Iterations {
			t.Fatalf("resume ran %d iterations, full run %d", got[0].Iterations, want[0].Iterations)
		}
		for v := range want[0].Values {
			if got[0].Values[v] != want[0].Values[v] {
				t.Fatalf("vertex %d: resumed %v, want %v", v, got[0].Values[v], want[0].Values[v])
			}
		}
	})

	t.Run("u32-minmax", func(t *testing.T) {
		want, errs := runDomainCkpt(t, g, u32MinMax(), 2, nil)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
		if _, errs := runDomainCkpt(t, g, u32MinMax(), 2, m); errs[0] != nil {
			t.Fatal(errs[0])
		}
		m.Resume = true
		got, errs := runDomainCkpt(t, g, u32MinMax(), 2, m)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for v := range want[0].Values {
			if got[0].Values[v] != want[0].Values[v] {
				t.Fatalf("vertex %d: resumed %v, want %v", v, got[0].Values[v], want[0].Values[v])
			}
		}
	})
}

// A checkpoint written in one domain must refuse to resume a program in
// another: the stored bits are meaningless in any other width/encoding,
// and the error must say so actionably.
func TestCheckpointRejectsWrongDomainTag(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 53)
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 2}

	// Write checkpoints with the f64 arith loop.
	f64prog := testArith()
	f64prog.Name = "shared-name"
	if _, errs := runWithCkpt(t, g, f64prog, 2, m, -1, 0); errs[0] != nil {
		t.Fatal(errs[0])
	}

	// Resume the same program name in the f32 domain: must fail with the
	// domain mismatch, not silently reinterpret the bits.
	m.Resume = true
	f32prog := f32Arith()
	f32prog.Name = "shared-name"
	_, errs := runDomainCkpt(t, g, f32prog, 2, m)
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("f64 checkpoint resumed an f32 program")
	}
	if !strings.Contains(firstErr.Error(), "domain") {
		t.Fatalf("domain mismatch error does not mention the domain: %v", firstErr)
	}
}

// v1Shard builds a minimal valid version-1 shard frame: magic, version 1,
// a program-name string, and a correct trailing CRC (the version check
// fires before any field parsing, so no v1 body is needed).
func v1Shard(program string) []byte {
	var buf []byte
	buf = append(buf, "SLCK"...)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(program)))
	buf = append(buf, program...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// A version-1 (pre-domain, untagged) shard must be rejected with the
// actionable ErrUntagged, never parsed as garbage.
func TestCheckpointRejectsUntaggedV1Shard(t *testing.T) {
	blob := v1Shard("SSSP")
	_, err := ckpt.ReadState(strings.NewReader(string(blob)))
	if err == nil {
		t.Fatal("version-1 shard accepted")
	}
	if !errors.Is(err, ckpt.ErrUntagged) {
		t.Fatalf("got %v, want ErrUntagged", err)
	}
	if !strings.Contains(err.Error(), "delete the checkpoint directory") {
		t.Fatalf("untagged error is not actionable: %v", err)
	}
}
