package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Scale: 20000, Nodes: 2, Threads: 1, PRIters: 5, Out: buf}
}

func TestExperimentsSmoke(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
		})
	}
}

func TestTable5ContainsGeomean(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "GEOMEAN") {
		t.Fatalf("Table5 output missing geomean:\n%s", out)
	}
	for _, g := range GraphNames {
		if !strings.Contains(out, g) {
			t.Fatalf("Table5 missing graph %s", g)
		}
	}
}

func TestGraphCaching(t *testing.T) {
	c := Config{Scale: 20000}
	c.defaults()
	a, err := c.Graph("PK")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Graph("PK")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("graph not cached")
	}
	s, err := c.Graph("PK:sym")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 2*a.NumEdges() {
		t.Fatalf("sym edges = %d, want %d", s.NumEdges(), 2*a.NumEdges())
	}
	if _, err := c.Graph("nope"); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestProgramLookup(t *testing.T) {
	c := Config{}
	c.defaults()
	g, _ := c.Graph("PK")
	for _, app := range append(AppNames, "BFS") {
		p, err := c.Program(app, g)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	if _, err := c.Program("nope", g); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean(nil); got != 1 {
		t.Fatalf("geomean(nil) = %v", got)
	}
	if got := geomean([]float64{2, 8}); got != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", got)
	}
}

func TestPerIterSeconds(t *testing.T) {
	if got := perIterSeconds("PR", 1e9, 10); got != 0.1 {
		t.Fatalf("PR per-iter = %v", got)
	}
	if got := perIterSeconds("SSSP", 1e9, 10); got != 1.0 {
		t.Fatalf("SSSP total = %v", got)
	}
}
