package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// streamGroups returns named transport groups of the given size — one
// in-process, one loopback TCP — so every stream test runs over both.
func streamGroups(t *testing.T, size int) map[string][]Transport {
	t.Helper()
	local, err := NewLocalGroup(size)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := LoopbackTCP(size, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]Transport{"local": local, "tcp": tcp}
}

// TestStreamExchangeEveryPeer streams several chunks from every rank to
// every other rank and checks each receiver sees each sender's chunks
// complete and in order, over both transports.
func TestStreamExchangeEveryPeer(t *testing.T) {
	const size, chunks = 3, 5
	for name, ts := range streamGroups(t, size) {
		t.Run(name, func(t *testing.T) {
			got := make([]map[int][]byte, size)
			var wg sync.WaitGroup
			errs := make([]error, size)
			for rank := 0; rank < size; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					c := NewComm(ts[rank])
					x := c.StartExchange()
					for i := 0; i < chunks; i++ {
						for to := 0; to < size; to++ {
							if to == rank {
								continue
							}
							if err := x.SendChunk(to, []byte{byte(rank), byte(i)}); err != nil {
								errs[rank] = err
								return
							}
						}
					}
					recv := make(map[int][]byte)
					errs[rank] = x.Finish(func(from int, chunk []byte) error {
						if len(chunk) != 2 || int(chunk[0]) != from {
							return fmt.Errorf("rank %d: bad chunk %v from %d", rank, chunk, from)
						}
						recv[from] = append(recv[from], chunk[1])
						return nil
					})
					got[rank] = recv
				}(rank)
			}
			wg.Wait()
			for _, tr := range ts { // close only after every rank finished
				tr.Close()
			}
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for rank, recv := range got {
				for from := 0; from < size; from++ {
					if from == rank {
						continue
					}
					seq := recv[from]
					if len(seq) != chunks {
						t.Fatalf("rank %d got %d chunks from %d, want %d", rank, len(seq), from, chunks)
					}
					for i, b := range seq {
						if int(b) != i {
							t.Fatalf("rank %d: chunk %d from %d arrived as index %d", rank, i, from, b)
						}
					}
				}
			}
		})
	}
}

// TestStreamExchangeRoundsOverlap runs many consecutive rounds with skewed
// per-round chunk counts and an artificially slow rank, so fast ranks
// stream round k+1 while the slow one still drains round k — exercising
// the future-round buffering.
func TestStreamExchangeRoundsOverlap(t *testing.T) {
	const size, rounds = 3, 8
	for name, ts := range streamGroups(t, size) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make([]error, size)
			for rank := 0; rank < size; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					c := NewComm(ts[rank])
					for round := 0; round < rounds; round++ {
						if rank == 0 {
							// The slow rank. Any interleaving passes: the
							// sleep only makes the fast ranks likely to
							// stream the next round before rank 0 drains.
							time.Sleep(2 * time.Millisecond)
						}
						x := c.StartExchange()
						n := (rank+round)%4 + 1
						for i := 0; i < n; i++ {
							for to := 0; to < size; to++ {
								if to == rank {
									continue
								}
								if err := x.SendChunk(to, []byte{byte(round), byte(i)}); err != nil {
									errs[rank] = err
									return
								}
							}
						}
						counts := make([]int, size)
						err := x.Finish(func(from int, chunk []byte) error {
							if int(chunk[0]) != round {
								return fmt.Errorf("round %d chunk delivered in round %d", chunk[0], round)
							}
							counts[from]++
							return nil
						})
						if err != nil {
							errs[rank] = err
							return
						}
						for from := 0; from < size; from++ {
							if from == rank {
								continue
							}
							want := (from+round)%4 + 1
							if counts[from] != want {
								errs[rank] = fmt.Errorf("round %d: got %d chunks from %d, want %d", round, counts[from], from, want)
								return
							}
						}
					}
				}(rank)
			}
			wg.Wait()
			for _, tr := range ts { // close only after every rank finished
				tr.Close()
			}
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}

// TestStreamExchangeFinalChunk checks the piggybacked end marker: a final
// chunk completes its sender without a separate marker, chunks after a
// final chunk are rejected at the sender, and peers that sent nothing
// still end via the bare marker.
func TestStreamExchangeFinalChunk(t *testing.T) {
	ts, err := NewLocalGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	counts := make([][]int, 3)
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			x := NewComm(ts[rank]).StartExchange()
			if rank == 0 {
				// Two regular chunks then a final one to rank 1; nothing to 2.
				for i := 0; i < 2; i++ {
					if err := x.SendChunk(1, []byte{byte(i)}); err != nil {
						errs[rank] = err
						return
					}
				}
				if err := x.SendFinalChunk(1, []byte{2}); err != nil {
					errs[rank] = err
					return
				}
				if err := x.SendChunk(1, []byte{9}); err == nil {
					errs[rank] = fmt.Errorf("chunk accepted after the final chunk")
					return
				}
			}
			got := make([]int, 3)
			errs[rank] = x.Finish(func(from int, chunk []byte) error {
				got[from]++
				return nil
			})
			counts[rank] = got
		}(rank)
	}
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if counts[1][0] != 3 {
		t.Fatalf("rank 1 got %d chunks from 0, want 3", counts[1][0])
	}
	if counts[2][0] != 0 || counts[0][1] != 0 {
		t.Fatalf("phantom chunks delivered: %v", counts)
	}
}

// TestStreamExchangeSingleRank checks the size-1 fast path is a no-op.
func TestStreamExchangeSingleRank(t *testing.T) {
	ts, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	c := NewComm(ts[0])
	x := c.StartExchange()
	if err := x.Finish(func(int, []byte) error { t.Fatal("apply called with no peers"); return nil }); err != nil {
		t.Fatal(err)
	}
	// The pooled exchange must be reusable.
	if err := c.StartExchange().Finish(nil); err != nil {
		t.Fatal(err)
	}
}

// TestStreamExchangeRejectsMalformed feeds short, out-of-order, oversized
// and unknown-kind stream payloads: Finish must error, never slice out of
// range or hang.
func TestStreamExchangeRejectsMalformed(t *testing.T) {
	mk := func(seq uint64, kind byte, n uint32, extra []byte) []byte {
		buf := binary.LittleEndian.AppendUint64(nil, seq)
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint32(buf, n)
		return append(buf, extra...)
	}
	cases := []struct {
		name     string
		payloads [][]byte
	}{
		{"short", [][]byte{{1, 2, 3}}},
		{"unknown-kind", [][]byte{mk(0, 9, 0, nil)}},
		{"out-of-order-chunk", [][]byte{mk(0, streamChunkKind, 1, []byte("x")), mk(0, streamEndKind, 2, nil)}},
		{"duplicate-end", [][]byte{mk(0, streamEndKind, 1, nil), mk(0, streamEndKind, 1, nil)}},
		{"end-below-sent", [][]byte{
			mk(0, streamChunkKind, 0, []byte("x")),
			mk(0, streamChunkKind, 1, []byte("y")),
			mk(0, streamEndKind, 1, nil),
		}},
		{"stale-round", [][]byte{mk(0, streamChunkKind, 0, []byte("x"))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := NewLocalGroup(2)
			if err != nil {
				t.Fatal(err)
			}
			defer ts[0].Close()
			defer ts[1].Close()
			for _, p := range tc.payloads {
				if err := ts[1].Send(0, typeStream, p); err != nil {
					t.Fatal(err)
				}
			}
			c := NewComm(ts[0])
			if tc.name == "stale-round" {
				c.streamSeq = 1 // the incoming round is below the current one
			}
			x := c.StartExchange()
			done := make(chan error, 1)
			go func() { done <- x.Finish(func(int, []byte) error { return nil }) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s accepted", tc.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: Finish hung", tc.name)
			}
		})
	}
}

// TestStreamExchangeApplyErrorAborts checks an apply error surfaces
// immediately instead of being swallowed by the drain loop.
func TestStreamExchangeApplyErrorAborts(t *testing.T) {
	ts, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	defer ts[1].Close()
	sender := NewComm(ts[1]).StartExchange()
	if err := sender.SendChunk(0, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	x := NewComm(ts[0]).StartExchange()
	wantErr := fmt.Errorf("injected apply failure")
	err = x.Finish(func(int, []byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("Finish error = %v, want the injected apply failure", err)
	}
}
