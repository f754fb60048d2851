package comm

import (
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"
)

// Every strict prefix of an admission, and the admission with a byte
// appended, must be rejected; so must counts that claim more than the
// payload holds.
func TestDecodeAdmissionRejectsCorruptPayloads(t *testing.T) {
	for _, a := range []*Admission{
		{Epoch: 7, Members: []int{0, 1, 2}, Bounds: []uint32{0, 10, 20, 30}, Restore: []byte("state")},
		{Epoch: 2, Members: []int{1}},
	} {
		buf := a.encode()
		got, err := decodeAdmission(buf)
		if err != nil || !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip of %+v: %+v, %v", a, got, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := decodeAdmission(buf[:cut]); err == nil {
				t.Errorf("%+v cut to %d of %d bytes: accepted", a, cut, len(buf))
			}
		}
		if _, err := decodeAdmission(append(buf[:len(buf):len(buf)], 0)); err == nil {
			t.Errorf("%+v with a trailing byte: accepted", a)
		}
	}
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for name, buf := range map[string][]byte{
		"members beyond payload": u32s(7, 1<<30, 0, 0, 0),
		"bounds beyond payload":  u32s(7, 0, 1<<30, 0),
		"restore beyond payload": u32s(7, 0, 0, 5),
		"restore short":          append(u32s(7, 0, 0, 1), "xy"...),
	} {
		if _, err := decodeAdmission(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// readHello must reject a short or mis-tagged 13-byte hello frame, and a
// silent peer once the deadline passes, and return the fields of a good one.
func TestReadHelloRejectsCorruptFrames(t *testing.T) {
	var good [helloLen]byte
	copy(good[:], helloMagic)
	good[4] = kindRejoin
	binary.LittleEndian.PutUint32(good[5:], 9)
	binary.LittleEndian.PutUint32(good[9:], 3)
	read := func(frame []byte, deadline time.Duration) (byte, uint32, int, error) {
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
	kind, epoch, rank, err := read(good[:], time.Second)
	if err != nil || kind != kindRejoin || epoch != 9 || rank != 3 {
		t.Fatalf("good hello read as kind %d epoch %d rank %d, %v", kind, epoch, rank, err)
	}
	for cut := 0; cut < helloLen; cut++ {
		if _, _, _, err := read(good[:cut], time.Second); err == nil {
			t.Errorf("hello cut to %d bytes: accepted", cut)
		}
	}
	for i := 0; i < len(helloMagic); i++ {
		bad := good
		bad[i] ^= 0x20
		if _, _, _, err := read(bad[:], time.Second); err == nil {
			t.Errorf("hello with magic byte %d flipped: accepted", i)
		}
	}
	a, b := net.Pipe() // a peer that connects and sends nothing
	defer a.Close()
	defer b.Close()
	if _, _, _, err := readHello(a, time.Now().Add(20*time.Millisecond)); err == nil {
		t.Error("silent peer: accepted")
	}
}
