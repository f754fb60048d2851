package comm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// scriptTransport is rank 0 of a group whose peers are a script: Recv hands
// out the scripted messages in order, showing each to onRecv first, and then
// reports the peers gone; sends go nowhere.
type scriptTransport struct {
	size   int
	msgs   []Message
	onRecv func(Message)
}

func (s *scriptTransport) Rank() int                      { return 0 }
func (s *scriptTransport) Size() int                      { return s.size }
func (s *scriptTransport) Send(int, uint16, []byte) error { return nil }
func (s *scriptTransport) Close() error                   { return nil }
func (s *scriptTransport) Stats() Stats                   { return Stats{} }

func (s *scriptTransport) Recv(typ uint16) (Message, error) {
	for len(s.msgs) > 0 {
		m := s.msgs[0]
		s.msgs = s.msgs[1:]
		if m.Type == typ {
			s.onRecv(m)
			return m, nil
		}
	}
	return Message{}, ErrClosed
}

// streamRecord encodes one stream message as a fuzz input record: a byte
// picking the sending peer, a length byte, then the typeStream payload
// (header and chunk).
func streamRecord(from byte, seq uint64, kind byte, n uint32, chunk string) []byte {
	p := binary.LittleEndian.AppendUint64(nil, seq)
	p = append(p, kind)
	p = binary.LittleEndian.AppendUint32(p, n)
	p = append(p, chunk...)
	return append([]byte{from, byte(len(p))}, p...)
}

// FuzzStreamExchange feeds arbitrary typeStream payloads from two fake
// peers, which then close, into Exchange.Finish of round 0. Finish must
// return, with or without an error, and never panic. Every chunk it applies
// must be round 0's next chunk from its sender and never one past the total
// the sender announced; a nil error means every peer's announced chunks all
// arrived.
func FuzzStreamExchange(f *testing.F) {
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	f.Add(cat(
		streamRecord(0, 0, streamChunkKind, 0, "a"),
		streamRecord(1, 0, streamEndKind, 0, ""),
		streamRecord(0, 0, streamFinalKind, 1, "b"),
	))
	f.Add(cat(
		streamRecord(1, 1, streamFinalKind, 0, "next round"),
		streamRecord(0, 0, streamEndKind, 0, ""),
		streamRecord(1, 0, streamFinalKind, 0, "c"),
	))
	f.Add(cat(
		streamRecord(0, 0, streamEndKind, 1, ""),
		streamRecord(0, 0, streamChunkKind, 1, "past the total"),
	))
	f.Add([]byte{1, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 3
		applied := make([]int64, size)
		total := []int64{-1, -1, -1} // announced chunk total per sender (-1: none yet)
		var last Message             // the message Finish is handling
		tr := &scriptTransport{size: size, onRecv: func(m Message) {
			last = m
			// An end marker announces its sender's total. One the exchange
			// rejects ends Finish with an error, so no chunk is applied
			// after it either way.
			p := m.Payload
			if len(p) >= streamHeaderLen && binary.LittleEndian.Uint64(p) == 0 && p[8] == streamEndKind && total[m.From] < 0 {
				total[m.From] = int64(binary.LittleEndian.Uint32(p[9:]))
			}
		}}
		for len(data) >= 2 {
			from, n := 1+int(data[0])%(size-1), min(int(data[1]), len(data)-2)
			tr.msgs = append(tr.msgs, Message{From: from, Type: typeStream, Payload: data[2 : 2+n]})
			data = data[2+n:]
		}

		err := NewComm(tr).StartExchange().Finish(func(from int, chunk []byte) error {
			p := last.Payload
			switch {
			case from != last.From:
				t.Fatalf("chunk from rank %d applied as rank %d's", last.From, from)
			case binary.LittleEndian.Uint64(p) != 0:
				t.Fatalf("chunk of round %d applied in round 0", binary.LittleEndian.Uint64(p))
			case p[8] != streamChunkKind && p[8] != streamFinalKind:
				t.Fatalf("message of kind %d applied as a chunk", p[8])
			case total[from] >= 0:
				t.Fatalf("rank %d: chunk applied past its announced total %d", from, total[from])
			case int64(binary.LittleEndian.Uint32(p[9:])) != applied[from]:
				t.Fatalf("rank %d: chunk %d applied out of order (want %d)", from, binary.LittleEndian.Uint32(p[9:]), applied[from])
			case !bytes.Equal(chunk, p[streamHeaderLen:]):
				t.Fatalf("rank %d: applied chunk is not the payload sent", from)
			}
			applied[from]++
			if p[8] == streamFinalKind {
				total[from] = applied[from]
			}
			return nil
		})
		if err != nil {
			return
		}
		for r := 1; r < size; r++ {
			if applied[r] != total[r] {
				t.Fatalf("Finish returned nil with rank %d at %d of %d announced chunks", r, applied[r], total[r])
			}
		}
	})
}

// FuzzDecodeAdmission throws arbitrary bytes at the rejoin admission
// decoder: it must never panic, and a payload it accepts must be exactly
// what encode writes for the admission it decoded.
func FuzzDecodeAdmission(f *testing.F) {
	f.Add((&Admission{Epoch: 7, Members: []int{0, 1, 2}, Bounds: []uint32{0, 10, 20, 30}, Restore: []byte("state")}).encode())
	f.Add((&Admission{Epoch: 1, Members: []int{3}}).encode())
	f.Add((&Admission{}).encode())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAdmission(data)
		if err != nil {
			return
		}
		if got := a.encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, got)
		}
	})
}
