package bench

import (
	"testing"
	"time"
)

// TestServeQuantile pins the nearest-rank quantile helper.
func TestServeQuantile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := serveQuantile(ds, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := serveQuantile(ds, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := serveQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
