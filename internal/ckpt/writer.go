package ckpt

// Writer persists one rank's shards behind the supersteps that follow
// them: the caller encodes a tick into Buffer and hands it to Submit, and a
// background goroutine does the temp-file write, fsync, rename and
// directory fsync while the next supersteps compute. At most one save is
// in flight: Submit waits for the previous one first, so a tick is durable
// once the next tick starts. Drain waits for the last one and stops the
// goroutine; a run that drains on every exit returns only with its shards
// durable.
//
// Two buffers alternate: the tick encodes into the one the in-flight save
// is not reading, and both are kept across runs, so a steady tick encodes
// without allocating. A Writer is used by one goroutine (the rank's
// superstep loop); its background goroutine exists from the first Submit
// to the next Drain.
type Writer struct {
	m    *Manager
	rank int
	bufs [2][]byte
	cur  int // index of the buffer Buffer hands out
	// jobs and done connect to the background goroutine; nil between
	// Drain and the next Submit. busy marks a save whose result is still
	// unread on done.
	jobs chan writeJob
	done chan error
	busy bool
}

type writeJob struct {
	iter  uint32
	shard []byte
}

// NewWriter returns a writer saving rank's shards into m's directory.
func NewWriter(m *Manager, rank int) *Writer {
	return &Writer{m: m, rank: rank}
}

// Buffer returns an empty buffer, with the capacity an earlier tick left
// it, to encode the next shard into. No save in flight reads it.
func (w *Writer) Buffer() []byte { return w.bufs[w.cur][:0] }

// Submit waits for the save in flight, then hands the tick at iter to the
// background goroutine: shard is its encoding (Buffer's storage, possibly
// grown), which may not be touched until the save is waited for. If the
// previous save failed, Submit returns its error and submits nothing.
func (w *Writer) Submit(iter uint32, shard []byte) error {
	if err := w.wait(); err != nil {
		return err
	}
	if w.jobs == nil {
		// One job in flight at most, so one slot each way lets neither side
		// block on the other.
		w.jobs, w.done = make(chan writeJob, 1), make(chan error, 1)
		go w.loop(w.jobs, w.done)
	}
	w.bufs[w.cur] = shard
	w.cur ^= 1
	w.busy = true
	w.jobs <- writeJob{iter: iter, shard: shard}
	return nil
}

// Drain waits for the save in flight, stops the background goroutine and
// returns the save's error. It is a no-op on an idle writer.
func (w *Writer) Drain() error {
	err := w.wait()
	if w.jobs != nil {
		close(w.jobs)
		w.jobs, w.done = nil, nil
	}
	return err
}

func (w *Writer) wait() error {
	if !w.busy {
		return nil
	}
	w.busy = false
	return <-w.done
}

// loop saves jobs until Drain closes the channel. The goroutine reads only
// the job and the writer's immutable manager and rank.
func (w *Writer) loop(jobs <-chan writeJob, done chan<- error) {
	for j := range jobs {
		done <- w.m.writeAtomic(w.m.shardPath(j.iter, w.rank), j.shard)
	}
}
