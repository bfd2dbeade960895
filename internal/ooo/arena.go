package ooo

import "sync"

// runMem recycles one simulation's slab allocations across runs. The
// simulator batch-allocates dyns and segments in chunks that die with
// the machine (no *dyn, segment, or window buffer escapes into a Result —
// results copy values), so a finished run can hand its chunks to the
// next run instead of leaving tens of megabytes per run for the garbage
// collector to zero, mark, and sweep. Segment chunks carry a zero-value
// guarantee and are cleared on reuse; dyns are zeroed one at a time as
// allocDyn hands them out, in cache just before newDyn writes them;
// consumer-list nodes and the live-order array are always written before
// they are read and skip the memclr.
//
// A runMem is owned by exactly one machine between getRunMem and
// machine.release; the pool makes concurrent sweeps safe.
type runMem struct {
	dynChunks [][]dyn
	dynNext   int

	segChunks [][]segment
	segNext   int

	liveCache []*dyn
	liveFlags []uint8

	cons []consNode
}

var memPool sync.Pool // *runMem

func getRunMem() *runMem {
	if r, _ := memPool.Get().(*runMem); r != nil {
		return r
	}
	return &runMem{}
}

// release returns the machine's slabs to the pool. Call only when the
// run is finished and no dyn can be referenced again; the machine must
// not be used afterwards.
func (m *machine) release() {
	r := m.rm
	if r == nil {
		return
	}
	m.rm = nil
	r.liveCache = m.win.liveCache[:0]
	r.liveFlags = m.win.liveFlags[:0]
	r.cons = m.cons[:0]
	r.dynNext, r.segNext = 0, 0
	memPool.Put(r)
}

const dynChunkSize = 512

// dynChunk returns a slab of dyns, recycling a previous run's chunk when
// one is available. A recycled chunk is not cleared: allocDyn zeroes each
// dyn as it hands it out.
func (r *runMem) dynChunk() []dyn {
	if r.dynNext < len(r.dynChunks) {
		c := r.dynChunks[r.dynNext]
		r.dynNext++
		return c
	}
	c := make([]dyn, dynChunkSize)
	r.dynChunks = append(r.dynChunks, c)
	r.dynNext = len(r.dynChunks)
	return c
}

const segChunkSize = 64

// segChunk returns a zeroed slab of segment structs.
func (r *runMem) segChunk() []segment {
	if r.segNext < len(r.segChunks) {
		c := r.segChunks[r.segNext]
		r.segNext++
		clear(c)
		return c
	}
	c := make([]segment, segChunkSize)
	r.segChunks = append(r.segChunks, c)
	r.segNext = len(r.segChunks)
	return c
}
