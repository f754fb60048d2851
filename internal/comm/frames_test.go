package comm

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// readHello must reject a short or mis-tagged 8-byte hello frame, and a
// silent peer once the deadline passes, and return the rank of a good one.
func TestReadHelloRejectsCorruptFrames(t *testing.T) {
	var good [helloLen]byte
	copy(good[:], helloMagic)
	binary.LittleEndian.PutUint32(good[4:], 3)
	read := func(frame []byte, deadline time.Duration) (int, error) {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			b.Write(frame)
			if len(frame) < helloLen {
				b.Close()
			}
		}()
		defer b.Close()
		return readHello(a, time.Now().Add(deadline))
	}
	rank, err := read(good[:], time.Second)
	if err != nil || rank != 3 {
		t.Fatalf("good hello read as rank %d, %v", rank, err)
	}
	for cut := 0; cut < helloLen; cut++ {
		if _, err := read(good[:cut], time.Second); err == nil {
			t.Errorf("hello cut to %d bytes: accepted", cut)
		}
	}
	for i := 0; i < len(helloMagic); i++ {
		bad := good
		bad[i] ^= 0x20
		if _, err := read(bad[:], time.Second); err == nil {
			t.Errorf("hello with magic byte %d flipped: accepted", i)
		}
	}
	a, b := net.Pipe() // a peer that connects and sends nothing
	defer a.Close()
	defer b.Close()
	if _, err := readHello(a, time.Now().Add(20*time.Millisecond)); err == nil {
		t.Error("silent peer: accepted")
	}
}
