package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The writer alternates two pooled buffers, saves each submitted tick (and
// a buddy's replica) by the time the next Submit or Drain returns, and
// reports a failed save exactly once: at the next Submit, which then
// submits nothing, or at Drain.
func TestWriterSavesBehindAndReportsErrors(t *testing.T) {
	m := &Manager{Dir: filepath.Join(t.TempDir(), "ck")}
	w := NewWriter(m, 0)
	tick := func(iter uint32) []byte {
		s := mergeShard(0)
		s.Iter = iter
		return s.AppendTo(w.Buffer())
	}
	buddy := mergeShard(1)
	buddy.Iter = 1
	first := tick(1)
	if err := w.Submit(1, first, buddy.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	second := tick(3)
	if &second[0] == &first[0] {
		t.Fatal("the next tick encodes into the buffer the save in flight reads")
	}
	if err := w.Submit(3, second, nil); err != nil {
		t.Fatal(err)
	}
	// Submit(3) waited for tick 1's save, replica included.
	for _, path := range []string{m.shardPath(1, 0), m.replicaPath(1, 1)} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("tick 1 not durable when tick 3 was submitted: %v", err)
		}
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(m.shardPath(3, 0)); err != nil {
		t.Fatalf("tick 3 not durable after Drain: %v", err)
	}
	if again := tick(5); &again[0] != &first[0] {
		t.Fatal("the pooled buffers were not reused across a Drain")
	}

	boom := errors.New("injected disk failure")
	orig := syncFile
	defer func() { syncFile = orig }()
	syncFile = func(*os.File) error { return boom }
	if err := w.Submit(5, tick(5), nil); err != nil {
		t.Fatalf("Submit returned %v before the save ran", err)
	}
	if err := w.Submit(7, tick(7), nil); !errors.Is(err, boom) {
		t.Fatalf("the next Submit returned %v, want the failed save's error", err)
	}
	if err := w.Drain(); err != nil {
		t.Fatalf("Drain after a reported failure returned %v; tick 7 was never submitted", err)
	}
	if err := w.Submit(9, tick(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain returned %v, want the last save's error", err)
	}
	if got, err := m.LatestComplete(1); err != nil || got != 3 {
		t.Fatalf("LatestComplete = %d, %v; want 3, the last tick that saved", got, err)
	}
}
