package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
)

// TestEngineOverTCP runs the full engine on a real TCP mesh and checks the
// result equals the in-process run — the engine must be transport
// agnostic.
func TestEngineOverTCP(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 13)
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)
	prog := testProgram()

	// LoopbackTCP binds every listener before any rank dials, so no other
	// process can take a port between reservation and use.
	transports, err := comm.LoopbackTCP(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*Result[float64], nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := transports[rank]
			eng, err := New[float64](Config{
				Graph: g, Comm: comm.NewComm(tr), Part: part, Sched: testSched(t, 0),
				RR: true, Guidance: gd,
			})
			if err != nil {
				errs[rank] = err
				comm.Abort(tr)
				return
			}
			results[rank], errs[rank] = eng.Run(prog)
			if errs[rank] != nil {
				comm.Abort(tr)
			}
		}(rank)
	}
	wg.Wait()
	// Close only after every rank finished: an early Close can reset
	// connections carrying a slower peer's final reduce results.
	for _, tr := range transports {
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	// All ranks agree with each other...
	for rank := 1; rank < nodes; rank++ {
		for v := range results[0].Values {
			if results[0].Values[v] != results[rank].Values[v] {
				t.Fatalf("rank %d disagrees at vertex %d", rank, v)
			}
		}
	}
	// ... and with a single-worker in-process run.
	soloPart, _ := partition.NewChunked(g, 1)
	eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: soloPart, Sched: testSched(t, 0), RR: true, Guidance: gd})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := eng.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for v := range solo.Values {
		a, b := solo.Values[v], results[0].Values[v]
		if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			t.Fatalf("TCP cluster differs from solo at vertex %d: %v vs %v", v, a, b)
		}
	}
}
