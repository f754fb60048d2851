package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStateV3RankBoundsRoundTrip(t *testing.T) {
	s := sampleState()
	s.Rank = 2
	s.Bounds = []uint32{0, 1, 3, 4}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 2 {
		t.Errorf("Rank = %d, want 2", got.Rank)
	}
	if len(got.Bounds) != 4 || got.Bounds[2] != 3 {
		t.Errorf("Bounds = %v", got.Bounds)
	}
}

// TestReadStateRejectsV2 pins the retired format's exit: a hand-built v2
// frame (no rank/bounds fields, valid CRC) must be refused with an error
// that says what to do, not parsed and not reported as corruption.
func TestReadStateRejectsV2(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	// Rewrite the frame as v2 by patching the version and splicing out the
	// 4-byte rank + 8-byte bounds length (sampleState has no bounds), then
	// recomputing the CRC (helpers from the corruption test path).
	body := append([]byte(nil), v3[:len(v3)-4]...)
	body[4] = 2 // version u16 low byte, little-endian
	cut := 4 + 2 + 4 + len(s.Program) + 1 + 4 + 4 + len(s.Domain) + 1
	body = append(body[:cut], body[cut+4+8:]...)
	_, err := ReadState(bytes.NewReader(appendCRC(body)))
	if err == nil {
		t.Fatal("v2 frame accepted")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 frame reported as corruption: %v", err)
	}
	for _, want := range []string{"version 2", "delete the checkpoint directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("v2 rejection %q is not actionable: missing %q", err, want)
		}
	}
}

// TestReadStateRejectsV3 pins the exit of the full-length format: a
// version-3 frame has the current layout, but its arrays hold every vertex,
// so it is refused with an actionable error rather than merged as an owned
// shard.
func TestReadStateRejectsV3(t *testing.T) {
	s := mergeShard(0)
	s.Values = make([]uint64, 4)
	body := s.AppendTo(nil)
	body = body[:len(body)-4]
	body[4] = 3 // version u16 low byte, little-endian
	_, err := ReadState(bytes.NewReader(appendCRC(body)))
	if err == nil {
		t.Fatal("v3 frame accepted")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("v3 frame reported as corruption: %v", err)
	}
	for _, want := range []string{"version 3", "delete the checkpoint directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("v3 rejection %q is not actionable: missing %q", err, want)
		}
	}
}

func appendCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	sum := crc32.ChecksumIEEE(out)
	return append(out, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func TestSaveSyncErrorLeavesNoShard(t *testing.T) {
	boom := errors.New("injected disk failure")
	cases := []struct {
		name string
		set  func()
	}{
		{"file sync fails", func() { syncFile = func(*os.File) error { return boom } }},
		{"dir sync fails", func() { syncDir = func(string) error { return boom } }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			origFile, origDir := syncFile, syncDir
			defer func() { syncFile, syncDir = origFile, origDir }()
			tc.set()
			m := &Manager{Dir: filepath.Join(t.TempDir(), "ck")}
			err := m.Save(0, sampleState())
			if !errors.Is(err, boom) {
				t.Fatalf("Save err = %v, want injected failure", err)
			}
			// The file-sync failure must not surface a shard file; the
			// dir-sync failure happens after the rename, so the shard may
			// exist but the error must still be reported (callers treat the
			// checkpoint as not taken and will retry next interval).
			if tc.name == "file sync fails" {
				if _, statErr := os.Stat(m.shardPath(7, 0)); !errors.Is(statErr, os.ErrNotExist) {
					t.Errorf("shard file exists after failed sync (stat: %v)", statErr)
				}
			}
			// No temp litter either way.
			entries, _ := os.ReadDir(m.Dir)
			for _, e := range entries {
				if e.Name()[0] == '.' {
					t.Errorf("temp file %q left behind", e.Name())
				}
			}
		})
	}
}

func TestSaveReplicaAndStates(t *testing.T) {
	m := &Manager{Dir: filepath.Join(t.TempDir(), "ck")}
	own := sampleState()
	own.Rank = 0
	own.Bounds = []uint32{0, 2, 4}
	if err := m.Save(0, own); err != nil {
		t.Fatal(err)
	}
	buddy := sampleState()
	buddy.Rank = 1
	buddy.Bounds = []uint32{0, 2, 4}
	var blob bytes.Buffer
	if _, err := buddy.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveReplica(blob.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Corrupt replica payloads are rejected before anything hits disk.
	if err := m.SaveReplica([]byte("garbage")); err == nil {
		t.Error("corrupt replica accepted")
	}
	stored, err := m.States()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Fatalf("States returned %d entries, want 2", len(stored))
	}
	byRank := map[uint32]Stored{}
	for _, st := range stored {
		byRank[st.State.Rank] = st
	}
	if st := byRank[0]; st.Replica || st.State == nil {
		t.Errorf("rank 0 shard: %+v, want own (non-replica)", st)
	}
	if st := byRank[1]; !st.Replica {
		t.Errorf("rank 1 shard not marked replica: %+v", st)
	}
	// Replicas must not count toward complete local checkpoints.
	if got, err := m.LatestComplete(2); err != nil || got != -1 {
		t.Errorf("LatestComplete = %d, %v; replicas must not count", got, err)
	}
}
