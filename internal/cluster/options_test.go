package cluster

import (
	"errors"
	"strings"
	"testing"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func ssspProgram() *core.Program[float64] {
	return &core.Program[float64]{
		Name: "sssp",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) core.Value {
			if v == 0 {
				return 0
			}
			return 1e300
		},
		Roots:  []graph.VertexID{0},
		Relax:  func(src core.Value, w float32) core.Value { return src + float64(w) },
		Better: func(a, b core.Value) bool { return a < b },
	}
}

// entryPoints are the three ways to start a run; each takes the options
// and a cluster size and owns whatever it opens.
var entryPoints = []struct {
	name string
	run  func(t *testing.T, g graph.View, opt Options, nodes int) (*RunResult[float64], error)
}{
	{"Execute", func(_ *testing.T, g graph.View, opt Options, nodes int) (*RunResult[float64], error) {
		opt.Nodes = nodes
		return Execute(g, ssspProgram(), opt)
	}},
	{"ExecuteOver", func(t *testing.T, g graph.View, opt Options, nodes int) (*RunResult[float64], error) {
		ts, err := comm.NewLocalGroup(nodes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteOver(g, ssspProgram(), opt, ts)
		// ExecuteOver owns the transports whatever the outcome.
		if serr := ts[0].Send(0, 1, nil); !errors.Is(serr, comm.ErrClosed) {
			t.Errorf("ExecuteOver left its transports open (send after return: %v)", serr)
		}
		return res, err
	}},
	{"ExecuteSession", func(t *testing.T, g graph.View, opt Options, nodes int) (*RunResult[float64], error) {
		s, err := NewSession(nodes, opt.Threads, true)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return ExecuteSession(s, g, ssspProgram(), opt)
	}},
}

// TestOptionsCombinations drives every allowed engine-feature combination
// through all three entry points and checks each lands bit-identical on the
// plain run: they are one execution path, opened three ways.
func TestOptionsCombinations(t *testing.T) {
	const nodes = 4
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 16, 31)
	base, err := Execute(g, ssspProgram(), Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	// Options are built per run so every checkpointing run gets its own
	// directory.
	cases := []struct {
		name string
		opt  func() Options
	}{
		{"plain", func() Options { return Options{} }},
		{"codec", func() Options { return Options{Codec: compress.Adaptive{}} }},
		{"rr+codec", func() Options { return Options{RR: true, Codec: compress.Adaptive{}} }},
		{"ckpt", func() Options { return Options{Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 2}} }},
		{"everything-compatible", func() Options {
			return Options{RR: true, Stealing: true, Threads: 2,
				Codec: compress.Adaptive{}, Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 3}}
		}},
	}
	sameAsBase := func(t *testing.T, res *RunResult[float64]) {
		t.Helper()
		for v := range base.Result.Values {
			if res.Result.Values[v] != base.Result.Values[v] {
				t.Fatalf("vertex %d: %v, want %v", v, res.Result.Values[v], base.Result.Values[v])
			}
		}
	}
	for _, c := range cases {
		for _, ep := range entryPoints {
			t.Run(c.name+"/"+ep.name, func(t *testing.T) {
				res, err := ep.run(t, g, c.opt(), nodes)
				if err != nil {
					t.Fatal(err)
				}
				sameAsBase(t, res)
			})
		}
	}
}

// TestCkptResumeThroughExecute checks the cluster-level resume path: a
// checkpointed run followed by a resumed run that skips the prefix.
func TestCkptResumeThroughExecute(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 37)
	p := &core.Program[float64]{
		Name:       "pr",
		Agg:        core.Arith,
		InitValue:  func(_ graph.View, _ graph.VertexID) core.Value { return 1 },
		GatherInit: 0,
		Gather:     func(acc, src core.Value, _ float32) core.Value { return acc + src },
		Apply: func(g graph.View, v graph.VertexID, acc, _ core.Value) core.Value {
			if d := g.OutDegree(v); d > 0 {
				return (0.15 + 0.85*acc) / float64(d)
			}
			return 0.15 + 0.85*acc
		},
		MaxIters: 20,
	}
	want, err := Execute(g, p, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 5}
	if _, err := Execute(g, p, Options{Nodes: 2, Ckpt: m}); err != nil {
		t.Fatal(err)
	}
	m.Resume = true
	res, err := Execute(g, p, Options{Nodes: 2, Ckpt: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Iterations >= want.Result.Iterations {
		t.Fatalf("resumed run executed %d iterations, full run %d", res.Result.Iterations, want.Result.Iterations)
	}
	for v := range want.Result.Values {
		if res.Result.Values[v] != want.Result.Values[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

// TestCkptResumeRejectsOtherRankCount checks that a checkpoint written by
// 3 ranks does not resume on 2: the shards of ranks 0 and 1 cover only
// two of its three ranges, and the error names both counts.
func TestCkptResumeRejectsOtherRankCount(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 37)
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
	if _, err := Execute(g, ssspProgram(), Options{Nodes: 3, Ckpt: m}); err != nil {
		t.Fatal(err)
	}
	m.Resume = true
	_, err := Execute(g, ssspProgram(), Options{Nodes: 2, Ckpt: m})
	if err == nil {
		t.Fatal("a 3-rank checkpoint resumed on 2 ranks")
	}
	for _, want := range []string{"written by 3 ranks", "resuming on 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
