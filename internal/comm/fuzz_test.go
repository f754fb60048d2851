package comm

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
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

// scriptMessages decodes fuzz input records (see streamRecord) into the
// typeStream messages of a size-rank script, sent by ranks 1..size-1.
func scriptMessages(data []byte, size int) []Message {
	var msgs []Message
	for len(data) >= 2 {
		from, n := 1+int(data[0])%(size-1), min(int(data[1]), len(data)-2)
		msgs = append(msgs, Message{From: from, Type: typeStream, Payload: data[2 : 2+n]})
		data = data[2+n:]
	}
	return msgs
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
		tr.msgs = scriptMessages(data, size)

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

// FuzzCollectiveRound feeds scripted typeStream messages from two fake
// peers, which then close, into AllGather (round 0) and SparseExchange
// (round 1) on rank 0 of a 3-rank group, both on one Comm. No call may
// panic. A call that returns nil must return exactly the chunks its round
// received: AllGather one from every peer, SparseExchange at most one per
// peer.
func FuzzCollectiveRound(f *testing.F) {
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	gather := cat(
		streamRecord(0, 0, streamFinalKind, 0, "g1"),
		streamRecord(1, 0, streamFinalKind, 0, "g2"),
	)
	sparse := cat(
		streamRecord(1, 1, streamFinalKind, 0, "s2"),
		streamRecord(0, 1, streamEndKind, 0, ""),
	)
	f.Add(cat(gather, sparse))
	f.Add(cat( // the later round arrives first and waits in the buffer
		streamRecord(0, 1, streamEndKind, 0, ""),
		gather,
		streamRecord(1, 1, streamEndKind, 0, ""),
	))
	f.Add(cat(gather, // rank 2 sends SparseExchange two chunks
		streamRecord(1, 1, streamChunkKind, 0, "s2a"),
		streamRecord(1, 1, streamFinalKind, 1, "s2b"),
		streamRecord(0, 1, streamEndKind, 0, ""),
	))
	f.Add(cat( // rank 2 gives AllGather no blob
		streamRecord(0, 0, streamFinalKind, 0, "g1"),
		streamRecord(1, 0, streamEndKind, 0, ""),
	))
	f.Add(cat( // two chunks from one peer in one round
		streamRecord(0, 0, streamChunkKind, 0, "a"),
		streamRecord(0, 0, streamFinalKind, 1, "b"),
		streamRecord(1, 0, streamFinalKind, 0, "c"),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 3
		// chunks[round][from] lists the chunk payloads rank 0 received.
		var chunks [2][size][][]byte
		tr := &scriptTransport{size: size, msgs: scriptMessages(data, size), onRecv: func(m Message) {
			p := m.Payload
			if len(p) < streamHeaderLen || (p[8] != streamChunkKind && p[8] != streamFinalKind) {
				return
			}
			if seq := binary.LittleEndian.Uint64(p); seq < 2 {
				chunks[seq][m.From] = append(chunks[seq][m.From], p[streamHeaderLen:])
			}
		}}
		c := NewComm(tr)

		if all, err := c.AllGather([]byte("own")); err == nil {
			if string(all[0]) != "own" {
				t.Fatalf("AllGather own slot = %q", all[0])
			}
			for r := 1; r < size; r++ {
				if got := chunks[0][r]; len(got) != 1 || !bytes.Equal(all[r], got[0]) {
					t.Fatalf("AllGather returned %q from rank %d, which sent %q", all[r], r, got)
				}
			}
		}
		if out, err := c.SparseExchange([][]byte{[]byte("own"), nil, []byte("to 2")}); err == nil {
			if string(out[0]) != "own" {
				t.Fatalf("SparseExchange own slot = %q", out[0])
			}
			for r := 1; r < size; r++ {
				got := chunks[1][r]
				if len(got) > 1 || (len(got) == 1) != (out[r] != nil) || (out[r] != nil && !bytes.Equal(out[r], got[0])) {
					t.Fatalf("SparseExchange returned %q from rank %d, which sent %q", out[r], r, got)
				}
			}
		}
	})
}

// FuzzReadHello feeds arbitrary bytes, then end of stream, to readHello. It
// must never panic, accept exactly the inputs that start with the magic and
// hold at least a whole hello, and return the little-endian rank after the
// magic.
func FuzzReadHello(f *testing.F) {
	f.Add([]byte("SLFM\x03\x00\x00\x00"))
	f.Add([]byte("SLFM\xff\xff\xff\xfftrailing bytes"))
	f.Add([]byte("SLFM\x01\x00"))
	f.Add([]byte("SLFX\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.Write(data) // fails once a stops reading past the hello
			b.Close()
		}()
		rank, err := readHello(a, time.Now().Add(time.Second))
		a.Close()
		<-done
		valid := len(data) >= helloLen && string(data[:4]) == helloMagic
		switch {
		case valid && err != nil:
			t.Fatalf("valid hello %x refused: %v", data, err)
		case !valid && err == nil:
			t.Fatalf("invalid hello %x accepted as rank %d", data, rank)
		case valid && rank != int(binary.LittleEndian.Uint32(data[4:])):
			t.Fatalf("hello %x read as rank %d", data, rank)
		}
	})
}
