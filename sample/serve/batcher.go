package serve

// The ingest batcher (DESIGN.md §8) is the one path from a decoded
// /ingest request to the engine. It is group commit: every request
// joins the pending flushGroup, and the writer that opened the group
// takes ingestMu, detaches whatever the group holds by then and
// flushes it. An idle node therefore flushes each request alone with
// no added wait, while writers that arrive during a flush ride the
// next one — the batch size follows how busy the engine is, with no
// size or wait knob. Each writer blocks until the flush carrying its
// items completes: a 200 means "these items reached the engine before
// this response", which is the checkpoint durability contract. The
// locks taken here follow the order stated on the Node struct.

import (
	"sync"
	"time"
)

// flushGroup is one shared engine batch: the concatenated items of
// every writer that joined it, each writer's segment end, and the
// completion signal those writers wait on. err, errs and total are
// written before done closes and read only after.
type flushGroup struct {
	items   []int64
	ends    []int     // ends[i] is writer i's segment end in items
	created time.Time // the opening writer's join — the queue-wait clock
	done    chan struct{}
	err     error   // errClosed when the node lock had closed, else nil
	errs    []error // per-writer engine rejections; nil when all were accepted
	total   int64   // engine stream mass after the flush (the writers' StreamLen ack)
}

// batcher groups concurrent ingest writers into flushGroups. Every
// Node has one.
type batcher struct {
	node *Node

	mu      sync.Mutex
	pending *flushGroup // the group accepting writers; nil when none is open
	closed  bool
	// spare is the last flushed group's item buffer, handed to the next
	// group: at most one group flushes while one fills, so one spare
	// makes the steady-state flush loop allocation-free.
	spare []int64
}

// ingest appends one writer's items through add, waits for the flush
// that carries them and returns the engine stream mass after it, or
// this writer's error. add runs under the batcher lock and extends the
// shared buffer in place (append for JSON-decoded items, a single-pass
// frame decode for binary bodies). It must honor the rollback contract
// wire.DecodeItemsFrame honors — on error it returns dst unchanged —
// so a hostile request fails alone without leaking an item into the
// flush the other writers ride. errClosed after close.
func (b *batcher) ingest(add func(dst []int64) ([]int64, error)) (int64, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, errClosed
	}
	g, lead := b.pending, b.pending == nil
	if lead {
		g = &flushGroup{items: b.spare, created: time.Now(), done: make(chan struct{})}
		b.spare = nil
	}
	items, err := add(g.items)
	if err != nil {
		if lead {
			b.spare = items // unchanged by the rollback contract
		}
		b.mu.Unlock()
		return 0, err
	}
	g.items = items
	g.ends = append(g.ends, len(items))
	i := len(g.ends) - 1
	if lead {
		b.pending = g
	}
	b.mu.Unlock()

	if lead {
		b.commit(g)
	}
	<-g.done
	switch {
	case g.err != nil:
		return 0, g.err
	case g.errs != nil && g.errs[i] != nil:
		return 0, g.errs[i]
	}
	return g.total, nil
}

// commit is the opening writer's half: once it holds ingestMu it
// detaches the group — with every writer that joined while it waited —
// and flushes it. If close took ingestMu first, close has already
// detached and flushed the group, and there is nothing left to do.
func (b *batcher) commit(g *flushGroup) {
	b.node.ingestMu.Lock()
	defer b.node.ingestMu.Unlock()
	b.mu.Lock()
	mine := b.pending == g
	if mine {
		b.pending = nil
	}
	b.mu.Unlock()
	if mine {
		b.flush(g)
	}
}

// close flushes the pending group and refuses all further writers.
// Node.Close calls it after the draining flag flips and before the
// node lock closes: a writer already in the group gets its flush (and
// its 200, and its items in the final checkpoint); a writer that
// arrives later gets errClosed (503) without ever having been
// acknowledged. Zero acknowledged items are lost either way.
func (b *batcher) close() {
	b.node.ingestMu.Lock()
	defer b.node.ingestMu.Unlock()
	b.mu.Lock()
	b.closed = true
	g := b.pending
	b.pending = nil
	b.mu.Unlock()
	if g != nil {
		b.flush(g)
	}
}

// flush hands the group to the engine — one ProcessBatch call with
// every writer's segment end, so each writer gets its own outcome —
// and releases the waiting writers. Callers hold ingestMu (the
// engine's single-producer contract); the engine call itself runs
// inside locked, so it is refused once the node lock has closed.
func (b *batcher) flush(g *flushGroup) {
	n := b.node
	wait := time.Since(g.created)
	g.err = n.locked(func() error {
		g.errs = n.eng.ProcessBatch(g.items, g.ends)
		g.total = n.eng.StreamLen()
		return nil
	})
	if g.err == nil {
		n.lastStream.Store(g.total)
	}
	n.met.coalesceFlush(len(g.items), wait)
	// The engine copied (coordinator) or fully applied (sampler) the
	// items, and writers never read g.items: the buffer can carry the
	// next group.
	b.mu.Lock()
	b.spare = g.items[:0]
	b.mu.Unlock()
	g.items = nil
	close(g.done)
}
