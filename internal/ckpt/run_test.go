package ckpt_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// The engine saves shards on a background writer. These tests drive whole
// runs through it: a failed save must fail the run, and no run may return
// while a save is still in flight.

func pageRank() *core.Program[float64] {
	return &core.Program[float64]{
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
}

// shardIter reads the iteration of the shard being synced.
func shardIter(t *testing.T, f *os.File) uint32 {
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Error(err)
		return 0
	}
	s, err := ckpt.ReadState(bytes.NewReader(data))
	if err != nil {
		t.Error(err)
		return 0
	}
	return s.Iter
}

// tempFiles lists the writer's temp files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// An fsync failure at the tick after superstep 5 must surface from the run
// — the writer goroutine may not swallow it — leave no shard or temp file
// for that tick, and leave the directory resumable: the resumed run starts
// from the previous complete tick (3) and finishes bit-identical.
func TestRunFailsOnSyncErrorAndResumes(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 41)
	p := pageRank()
	want, err := cluster.Execute(g, p, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 2}
	boom := errors.New("injected fsync failure")
	restore := ckpt.SetSyncFile(func(f *os.File) error {
		if shardIter(t, f) >= 5 {
			return boom
		}
		return f.Sync()
	})
	_, err = cluster.Execute(g, p, cluster.Options{Nodes: 2, Ckpt: m})
	restore()
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the injected fsync failure", err)
	}
	if tmp := tempFiles(t, m.Dir); len(tmp) > 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
	latest, err := m.LatestComplete(2)
	if err != nil || latest != 3 {
		t.Fatalf("LatestComplete = %d, %v; want 3, the tick before the failed one", latest, err)
	}

	m.Resume = true
	got, err := cluster.Execute(g, p, cluster.Options{Nodes: 2, Ckpt: m})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Iterations != want.Result.Iterations-4 {
		t.Fatalf("resumed run executed %d iterations, want %d (resumed after iteration 3)", got.Result.Iterations, want.Result.Iterations-4)
	}
	for v := range want.Result.Values {
		if got.Result.Values[v] != want.Result.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Result.Values[v], want.Result.Values[v])
		}
	}
}

// failingTransport fails every send once its flag is up. From superstep 4
// on (ready), a send first waits for the flag, so the failure surfaces in
// superstep 4 or 5, before tick 5 is submitted; the first failure closes
// failed.
type failingTransport struct {
	comm.Transport
	ready  func() bool
	down   chan struct{}
	failed chan struct{}
	once   sync.Once
}

var errLinkDown = errors.New("injected transport failure")

// Abort passes the session's teardown through to the wrapped endpoint, so
// the peer blocked on this rank unblocks.
func (f *failingTransport) Abort() { comm.Abort(f.Transport) }

func (f *failingTransport) Send(to int, typ uint16, payload []byte) error {
	if f.ready() {
		<-f.down
	}
	select {
	case <-f.down:
		f.once.Do(func() { close(f.failed) })
		return errLinkDown
	default:
		return f.Transport.Send(to, typ, payload)
	}
}

// A transport failure while a tick's save is in flight ends the run, but
// the run returns only once that save has finished: its shards are on disk
// and no temp file appears afterwards. Every event is ordered, not timed:
// the link goes down once both ranks' tick-3 fsyncs have begun, so both
// have submitted tick 3; rank 0's sends from superstep 4 on wait for that,
// so neither rank reaches tick 5; and each tick-3 fsync stalls until rank
// 0's send has failed, so the save is still in flight when the run fails
// and a run that skipped the drain would return first.
func TestRunDrainsSaveOnTransportFailure(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 41)
	ts, err := comm.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	// Without RR every superstep applies every vertex, and rank 0 owns
	// vertex 0: its fifth Apply is in superstep 4, after tick 3's submit.
	p := pageRank()
	apply := p.Apply
	var applied0 atomic.Int32
	p.Apply = func(g graph.View, v graph.VertexID, acc, old core.Value) core.Value {
		if v == 0 {
			applied0.Add(1)
		}
		return apply(g, v, acc, old)
	}
	ft := &failingTransport{
		Transport: ts[0],
		ready:     func() bool { return applied0.Load() >= 5 },
		down:      make(chan struct{}),
		failed:    make(chan struct{}),
	}
	ts[0] = ft
	var reached atomic.Int32
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 2}
	restore := ckpt.SetSyncFile(func(f *os.File) error {
		if shardIter(t, f) == 3 {
			if reached.Add(1) == 2 {
				close(ft.down)
			}
			<-ft.failed
		}
		return f.Sync()
	})
	_, err = cluster.ExecuteOver(g, p, cluster.Options{Nodes: 2, Ckpt: m}, ts)
	if tmp := tempFiles(t, m.Dir); len(tmp) > 0 {
		t.Errorf("temp files present when the run returned: %v", tmp)
	}
	restore()
	if !errors.Is(err, errLinkDown) && !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("run returned %v, want the transport failure", err)
	}
	if latest, err := m.LatestComplete(2); err != nil || latest != 3 {
		t.Fatalf("LatestComplete = %d, %v; want 3, the tick in flight at the failure", latest, err)
	}
}
