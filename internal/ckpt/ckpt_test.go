package ckpt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func sampleState() *State {
	return &State{
		Program:   "SSSP",
		Kind:      MinMax,
		Iter:      7,
		Domain:    "f64",
		Width:     8,
		Values:    []uint64{0, math.Float64bits(1.5), math.Float64bits(math.Inf(1)), math.Float64bits(-2)},
		StableCnt: []uint32{0, 3},
		StableVal: []uint64{math.Float64bits(0.25)},
		Sets: map[string][]uint32{
			"frontier":    {1, 3},
			"sparsedirty": {},
		},
	}
}

func TestStateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := sampleState()
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != s.Program || got.Kind != s.Kind || got.Iter != s.Iter {
		t.Fatalf("header: %+v", got)
	}
	if got.Domain != "f64" || got.Width != 8 {
		t.Fatalf("domain tag: %q width %d", got.Domain, got.Width)
	}
	if len(got.Values) != 4 || !math.IsInf(math.Float64frombits(got.Values[2]), 1) {
		t.Fatalf("values: %v", got.Values)
	}
	if len(got.StableCnt) != 2 || got.StableCnt[1] != 3 {
		t.Fatalf("stableCnt: %v", got.StableCnt)
	}
	if len(got.Sets["frontier"]) != 2 || got.Sets["frontier"][1] != 3 {
		t.Fatalf("sets: %v", got.Sets)
	}
}

func TestReadStateRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := sampleState().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Every single-byte flip must be caught by the CRC.
	for i := 0; i < len(valid); i += 7 {
		mutated := append([]byte(nil), valid...)
		mutated[i] ^= 0x5a
		if _, err := ReadState(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	// Truncations too.
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := ReadState(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStateRoundTripProperty(t *testing.T) {
	f := func(values []uint64, cnts []uint32, iter uint32, name string) bool {
		s := &State{Program: name, Kind: Arith, Iter: iter, Domain: "f64", Width: 8, Values: values, StableCnt: cnts}
		if len(name) > 1<<15 {
			return true
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadState(&buf)
		if err != nil {
			return false
		}
		if got.Program != name || got.Iter != iter || len(got.Values) != len(values) {
			return false
		}
		for i := range values {
			if got.Values[i] != values[i] {
				return false
			}
		}
		for i := range cnts {
			if got.StableCnt[i] != cnts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerSaveLoadLatest(t *testing.T) {
	m := &Manager{Dir: filepath.Join(t.TempDir(), "ck"), Every: 2}
	if got, err := m.LatestComplete(2); err != nil || got != -1 {
		t.Fatalf("empty dir: %d %v", got, err)
	}
	for _, iter := range []uint32{1, 3} {
		for rank := 0; rank < 2; rank++ {
			s := sampleState()
			s.Iter = iter
			if err := m.Save(rank, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Incomplete checkpoint at iter 5: only rank 0.
	s := sampleState()
	s.Iter = 5
	if err := m.Save(0, s); err != nil {
		t.Fatal(err)
	}
	got, err := m.LatestComplete(2)
	if err != nil || got != 3 {
		t.Fatalf("latest = %d, %v; want 3", got, err)
	}
	loaded, err := m.Load(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Iter != 3 {
		t.Fatalf("loaded iter %d", loaded.Iter)
	}
}

func TestManagerIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	m := &Manager{Dir: dir}
	for _, name := range []string{"README", "ckpt-junk.slck", "ckpt-1-rankX.slck"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := m.LatestComplete(1); err != nil || got != -1 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestShouldSave(t *testing.T) {
	m := &Manager{Every: 4}
	saves := 0
	for iter := 0; iter < 16; iter++ {
		if m.ShouldSave(iter) {
			saves++
		}
	}
	if saves != 4 {
		t.Fatalf("saves = %d, want 4", saves)
	}
	def := &Manager{}
	if def.Interval() != 8 {
		t.Fatalf("default interval %d", def.Interval())
	}
}
