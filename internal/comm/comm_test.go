package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// runGroup executes fn on every rank of a fresh local group and fails the
// test on any returned error.
func runGroup(t *testing.T, size int, fn func(c *Comm) error) {
	t.Helper()
	ts, err := NewLocalGroup(size)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, size)
	var wg sync.WaitGroup
	for _, tr := range ts {
		wg.Add(1)
		go func(tr Transport) {
			defer wg.Done()
			errs <- fn(NewComm(tr))
		}(tr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalSendRecv(t *testing.T) {
	ts, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts[0].Send(1, TypeUser, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m, err := ts[1].Recv(TypeUser)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
	st := ts[0].Stats()
	if st.MessagesSent != 1 || st.BytesSent != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalSendInvalidRank(t *testing.T) {
	ts, _ := NewLocalGroup(2)
	if err := ts[0].Send(5, TypeUser, nil); err == nil {
		t.Fatal("send to rank 5 of 2 accepted")
	}
	if err := ts[0].Send(-1, TypeUser, nil); err == nil {
		t.Fatal("send to rank -1 accepted")
	}
}

func TestLocalPayloadCopied(t *testing.T) {
	ts, _ := NewLocalGroup(2)
	buf := []byte("abc")
	if err := ts[0].Send(1, TypeUser, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutate after send
	m, err := ts[1].Recv(TypeUser)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "abc" {
		t.Fatalf("payload aliased sender buffer: %q", m.Payload)
	}
}

func TestLocalTypedQueuesIndependent(t *testing.T) {
	ts, _ := NewLocalGroup(2)
	ts[0].Send(1, TypeUser+1, []byte("b"))
	ts[0].Send(1, TypeUser, []byte("a"))
	m, err := ts[1].Recv(TypeUser)
	if err != nil || string(m.Payload) != "a" {
		t.Fatalf("typed recv got %v %v", m, err)
	}
	m, err = ts[1].Recv(TypeUser + 1)
	if err != nil || string(m.Payload) != "b" {
		t.Fatalf("typed recv got %v %v", m, err)
	}
}

func TestLocalCloseUnblocksRecv(t *testing.T) {
	ts, _ := NewLocalGroup(1)
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Recv(TypeUser)
		done <- err
	}()
	// Let the Recv block. Either order passes: a Recv that starts after the
	// close returns ErrClosed too.
	time.Sleep(10 * time.Millisecond)
	ts[0].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
	if err := ts[0].Send(0, TypeUser, nil); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8} {
		var counter int
		var mu sync.Mutex
		runGroup(t, size, func(c *Comm) error {
			for round := 0; round < 10; round++ {
				mu.Lock()
				counter++
				mu.Unlock()
				if err := c.Barrier(); err != nil {
					return err
				}
				mu.Lock()
				got := counter
				mu.Unlock()
				if got < (round+1)*size {
					return fmt.Errorf("rank %d passed barrier %d with counter %d", c.Rank(), round, got)
				}
			}
			return nil
		})
	}
}

func TestAllReduce(t *testing.T) {
	runGroup(t, 6, func(c *Comm) error {
		x := int64(c.Rank() + 1)
		sum, err := c.AllReduceI64(x, OpSum)
		if err != nil {
			return err
		}
		if sum != 21 {
			return fmt.Errorf("sum = %d, want 21", sum)
		}
		min, err := c.AllReduceI64(x, OpMin)
		if err != nil {
			return err
		}
		if min != 1 {
			return fmt.Errorf("min = %d, want 1", min)
		}
		max, err := c.AllReduceI64(x, OpMax)
		if err != nil {
			return err
		}
		if max != 6 {
			return fmt.Errorf("max = %d, want 6", max)
		}
		f, err := c.AllReduceF64(0.5, OpSum)
		if err != nil {
			return err
		}
		if f != 3.0 {
			return fmt.Errorf("fsum = %v, want 3.0", f)
		}
		return nil
	})
}

func TestAllGather(t *testing.T) {
	runGroup(t, 4, func(c *Comm) error {
		blob := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		all, err := c.AllGather(blob)
		if err != nil {
			return err
		}
		for r, b := range all {
			want := []byte{byte(r), byte(r * 2)}
			if !bytes.Equal(b, want) {
				return fmt.Errorf("rank %d: blob[%d] = %v, want %v", c.Rank(), r, b, want)
			}
		}
		return nil
	})
}

// Many back-to-back rounds of mixed collectives exercise the sequencing
// logic (a fast rank must not corrupt a slow rank's round).
func TestCollectiveRounds(t *testing.T) {
	runGroup(t, 5, func(c *Comm) error {
		for round := 0; round < 50; round++ {
			blob := []byte{byte(round), byte(c.Rank())}
			all, err := c.AllGather(blob)
			if err != nil {
				return err
			}
			for r, b := range all {
				if b[0] != byte(round) || b[1] != byte(r) {
					return fmt.Errorf("round %d rank %d: gather[%d] = %v", round, c.Rank(), r, b)
				}
			}
			blobs := make([][]byte, c.Size())
			for r := range blobs {
				blobs[r] = []byte{byte(round), byte(c.Rank()), byte(r)}
			}
			got, err := c.SparseExchange(blobs)
			if err != nil {
				return err
			}
			for r, b := range got {
				if b[0] != byte(round) || b[1] != byte(r) || b[2] != byte(c.Rank()) {
					return fmt.Errorf("round %d rank %d: exchange[%d] = %v", round, c.Rank(), r, b)
				}
			}
		}
		return nil
	})
}

func TestSparseExchange(t *testing.T) {
	const size = 4
	runGroup(t, size, func(c *Comm) error {
		// Round 0: every rank feeds every rank, itself included.
		blobs := make([][]byte, size)
		for r := range blobs {
			blobs[r] = []byte(fmt.Sprintf("%d->%d", c.Rank(), r))
		}
		got, err := c.SparseExchange(blobs)
		if err != nil {
			return err
		}
		for r, b := range got {
			want := fmt.Sprintf("%d->%d", r, c.Rank())
			if string(b) != want {
				return fmt.Errorf("rank %d: got[%d] = %q, want %q", c.Rank(), r, b, want)
			}
		}
		// Round 1: a sparse ring — each rank feeds only its successor.
		blobs = make([][]byte, size)
		next := (c.Rank() + 1) % size
		blobs[next] = []byte(fmt.Sprintf("r%d->r%d", c.Rank(), next))
		got, err = c.SparseExchange(blobs)
		if err != nil {
			return err
		}
		prev := (c.Rank() + size - 1) % size
		for src, b := range got {
			switch src {
			case prev:
				want := fmt.Sprintf("r%d->r%d", prev, c.Rank())
				if string(b) != want {
					return fmt.Errorf("rank %d: from %d got %q, want %q", c.Rank(), src, b, want)
				}
			case c.Rank():
				if b != nil {
					return fmt.Errorf("rank %d: unexpected self blob %q", c.Rank(), b)
				}
			default:
				if b != nil {
					return fmt.Errorf("rank %d: unexpected blob %q from silent rank %d", c.Rank(), b, src)
				}
			}
		}
		// Round 2: nobody sends; must complete with all-nil results.
		got, err = c.SparseExchange(make([][]byte, size))
		if err != nil {
			return err
		}
		for src, b := range got {
			if b != nil {
				return fmt.Errorf("rank %d: silent round delivered %q from %d", c.Rank(), b, src)
			}
		}
		// Round 3: only rank 0 fans out, with empty (non-nil) payloads —
		// presence must be distinguishable from absence.
		blobs = make([][]byte, size)
		if c.Rank() == 0 {
			for r := 1; r < size; r++ {
				blobs[r] = []byte{}
			}
		}
		got, err = c.SparseExchange(blobs)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if got[0] == nil || len(got[0]) != 0 {
				return fmt.Errorf("rank %d: empty payload from 0 arrived as %v", c.Rank(), got[0])
			}
		}
		return nil
	})
}

// TestSparseExchangeOneMessagePerPeer pins the wire cost of one round:
// whatever the pattern, every rank sends each peer exactly one message — its
// payload (which doubles as the end marker) or a bare end marker.
func TestSparseExchangeOneMessagePerPeer(t *testing.T) {
	const size = 4
	patterns := map[string]func(from, to int) bool{
		"all-peers":  func(from, to int) bool { return true },
		"ring":       func(from, to int) bool { return to == (from+1)%size },
		"all-silent": func(from, to int) bool { return false },
	}
	for name, feeds := range patterns {
		t.Run(name, func(t *testing.T) {
			runGroup(t, size, func(c *Comm) error {
				blobs := make([][]byte, size)
				for r := range blobs {
					if r != c.Rank() && feeds(c.Rank(), r) {
						blobs[r] = []byte{byte(c.Rank())}
					}
				}
				before := c.T.Stats().MessagesSent
				if _, err := c.SparseExchange(blobs); err != nil {
					return err
				}
				if sent := c.T.Stats().MessagesSent - before; sent != size-1 {
					return fmt.Errorf("rank %d sent %d messages, want %d", c.Rank(), sent, size-1)
				}
				return nil
			})
		})
	}
}

func TestSparseExchangeRoundsDoNotMix(t *testing.T) {
	// A fast rank may enter round k+1 while a slow one drains round k; the
	// sequence tags must keep the rounds apart even with reordered senders.
	const size = 3
	const rounds = 20
	runGroup(t, size, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			blobs := make([][]byte, size)
			for r := 0; r < size; r++ {
				if r == c.Rank() || (round+r+c.Rank())%2 == 0 {
					continue
				}
				blobs[r] = []byte(fmt.Sprintf("%d|%d->%d", round, c.Rank(), r))
			}
			got, err := c.SparseExchange(blobs)
			if err != nil {
				return err
			}
			for src, b := range got {
				if src == c.Rank() || b == nil {
					continue
				}
				want := fmt.Sprintf("%d|%d->%d", round, src, c.Rank())
				if string(b) != want {
					return fmt.Errorf("rank %d round %d: got %q, want %q", c.Rank(), round, b, want)
				}
			}
		}
		return nil
	})
}

func TestSparseExchangeWrongLength(t *testing.T) {
	ts, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComm(ts[0])
	if _, err := c.SparseExchange(make([][]byte, 3)); err == nil {
		t.Fatal("SparseExchange accepted a mis-sized blob slice")
	}
}

func TestSparseExchangeSingleRank(t *testing.T) {
	ts, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComm(ts[0])
	got, err := c.SparseExchange([][]byte{[]byte("self")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "self" {
		t.Fatalf("got %q", got[0])
	}
}

func TestAllReduceRejectsShortPayload(t *testing.T) {
	// A peer emitting a truncated reduce word (a missing header, a buggy
	// sender) must surface as a protocol error, not an out-of-range slice.
	ts, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts[1].Send(0, typeReduce, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewComm(ts[0]).AllReduceI64(1, OpSum); err == nil {
		t.Fatal("AllReduceI64 accepted a 3-byte reduce payload")
	}
	// And on the result path of a non-root rank.
	ts2, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2[0].Send(1, typeReduceResult, []byte{9}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := NewComm(ts2[1]).AllReduceF64(1, OpMax)
		done <- err
	}()
	// Drain rank 1's contribution so its Send cannot block (local sends
	// never block, but keep the inbox tidy).
	if _, err := ts2[0].Recv(typeReduce); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("AllReduceF64 accepted a 1-byte result payload")
	}
}

// freeAddrs picks n distinct loopback addresses for a DialTCP to listen
// on. A port is free only until its check closes, so the picks come from
// below Linux's default ephemeral range (32768-60999), which the :0
// listeners and outgoing connections of concurrently running tests draw
// from; a random start keeps concurrent test processes apart.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	const lo, span = 20000, 12000
	addrs := make([]string, 0, n)
	for i, start := 0, rand.Intn(span); len(addrs) < n; i++ {
		if i == span {
			t.Fatal("no free loopback port below the ephemeral range")
		}
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", lo+(start+i)%span))
		if err != nil {
			continue
		}
		addrs = append(addrs, l.Addr().String())
		l.Close()
	}
	return addrs
}

// dialMesh forms a size-rank loopback TCP mesh whose listeners are bound
// before any rank dials, so no concurrent process can take a port.
func dialMesh(t *testing.T, size int) []Transport {
	t.Helper()
	ts, err := LoopbackTCP(size, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTCPSendRecv(t *testing.T) {
	ts := dialMesh(t, 3)
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	if err := ts[0].Send(2, TypeUser, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	m, err := ts[2].Recv(TypeUser)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || string(m.Payload) != "over tcp" {
		t.Fatalf("got %+v", m)
	}
	// Self-send works too.
	if err := ts[1].Send(1, TypeUser, []byte("self")); err != nil {
		t.Fatal(err)
	}
	m, err = ts[1].Recv(TypeUser)
	if err != nil || string(m.Payload) != "self" {
		t.Fatalf("self-send: %v %v", m, err)
	}
}

func TestTCPCollectives(t *testing.T) {
	ts := dialMesh(t, 4)
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(ts))
	for _, tr := range ts {
		wg.Add(1)
		go func(tr Transport) {
			defer wg.Done()
			c := NewComm(tr)
			sum, err := c.AllReduceI64(int64(c.Rank()), OpSum)
			if err != nil {
				errs <- err
				return
			}
			if sum != 6 {
				errs <- fmt.Errorf("sum = %d", sum)
				return
			}
			all, err := c.AllGather([]byte{byte(c.Rank())})
			if err != nil {
				errs <- err
				return
			}
			for r, b := range all {
				if len(b) != 1 || b[0] != byte(r) {
					errs <- fmt.Errorf("gather[%d] = %v", r, b)
					return
				}
			}
			errs <- c.Barrier()
		}(tr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPPeerFailureUnblocks(t *testing.T) {
	ts := dialMesh(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := ts[1].Recv(TypeUser)
		done <- err
	}()
	ts[0].Close() // peer dies
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after peer failure")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Recv did not unblock after peer close")
	}
	ts[1].Close()
}

func TestDialTCPValidation(t *testing.T) {
	if _, err := DialTCP(-1, 2, []string{"a", "b"}, time.Second); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := DialTCP(0, 2, []string{"a"}, time.Second); err == nil {
		t.Error("short address list accepted")
	}
	if _, err := DialTCP(3, 2, []string{"a", "b"}, time.Second); err == nil {
		t.Error("rank >= size accepted")
	}
}

func TestDialTCPTimeout(t *testing.T) {
	addrs := freeAddrs(t, 2)
	// Only rank 1 dials; rank 0 never shows up, so rank 1 must time out.
	start := time.Now()
	_, err := DialTCP(1, 2, addrs, 300*time.Millisecond)
	if err == nil {
		t.Fatal("DialTCP succeeded without peers")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("DialTCP took far longer than its timeout")
	}
}

// Property: reduceI64 matches a reference fold for arbitrary inputs.
func TestQuickReduceSemantics(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		sum, min, max := xs[0], xs[0], xs[0]
		accS, accMin, accMax := xs[0], xs[0], xs[0]
		for _, x := range xs[1:] {
			sum += x
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
			accS = reduceI64(accS, x, OpSum)
			accMin = reduceI64(accMin, x, OpMin)
			accMax = reduceI64(accMax, x, OpMax)
		}
		return accS == sum && accMin == min && accMax == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllReduce agrees across group sizes with a local fold.
func TestQuickAllReduceMatchesFold(t *testing.T) {
	f := func(vals []int16) bool {
		size := len(vals)
		if size == 0 || size > 8 {
			return true
		}
		ts, err := NewLocalGroup(size)
		if err != nil {
			return false
		}
		want := int64(0)
		for _, v := range vals {
			want += int64(v)
		}
		results := make([]int64, size)
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				got, err := NewComm(ts[r]).AllReduceI64(int64(vals[r]), OpSum)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					ok = false
				}
				results[r] = got
			}(r)
		}
		wg.Wait()
		if !ok {
			return false
		}
		for _, g := range results {
			if g != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
