// Package vcq holds the per-link virtual-channel queues both simulators
// (internal/flitsim and internal/appsim) forward from: one FIFO of packet
// ids per (link, VC), a nonempty-VC bitmask per link, and a round-robin
// pointer per link. Pick resolves a link's next VC from the bitmask with
// bits.TrailingZeros64, in O(mask words) instead of O(VCs).
package vcq

import "math/bits"

// FIFO is a slice-backed queue of packet ids.
type FIFO struct {
	buf  []int32
	head int
}

// Len returns the number of queued ids.
func (f *FIFO) Len() int { return len(f.buf) - f.head }

// Push appends id at the tail.
func (f *FIFO) Push(id int32) {
	if f.head > 64 && f.head*2 >= len(f.buf) {
		f.buf = append(f.buf[:0], f.buf[f.head:]...)
		f.head = 0
	}
	f.buf = append(f.buf, id)
}

// Peek returns the head id of a nonempty queue.
func (f *FIFO) Peek() int32 { return f.buf[f.head] }

// Pop removes and returns the head id of a nonempty queue.
func (f *FIFO) Pop() int32 {
	id := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		// Drained: rewind to the front of the backing array (capacity kept).
		// Without this a mostly-empty queue creeps toward the head>64 slide
		// threshold and keeps growing its array long into steady state.
		f.buf = f.buf[:0]
		f.head = 0
	}
	return id
}

// Queues is the FIFO of every (link, VC) of a run, with the per-link
// nonempty-VC bitmasks and round-robin pointers Pick arbitrates with.
// Push and Pop keep the bitmasks in step; nothing else may touch them.
type Queues struct {
	numVC int
	words int      // bitmask words per link
	fifos []FIFO   // [link*numVC + vc]
	mask  []uint64 // [link*words + vc/64]: bit vc%64 set while (link, vc) is nonempty
	rr    []int32  // per link: the VC Pick tries first
}

// New returns empty queues for links links of numVC VCs each.
func New(links, numVC int) Queues {
	words := (numVC + 63) / 64
	return Queues{
		numVC: numVC,
		words: words,
		fifos: make([]FIFO, links*numVC),
		mask:  make([]uint64, links*words),
		rr:    make([]int32, links),
	}
}

// Len returns the number of packets queued on (link, vc).
func (q *Queues) Len(link, vc int32) int { return q.fifos[int(link)*q.numVC+int(vc)].Len() }

// Push appends packet id to (link, vc).
func (q *Queues) Push(link, vc, id int32) {
	f := &q.fifos[int(link)*q.numVC+int(vc)]
	if f.Len() == 0 {
		q.mask[int(link)*q.words+int(vc)>>6] |= 1 << (uint(vc) & 63)
	}
	f.Push(id)
}

// Pop removes and returns the head packet of the nonempty queue
// (link, vc).
func (q *Queues) Pop(link, vc int32) int32 {
	f := &q.fifos[int(link)*q.numVC+int(vc)]
	id := f.Pop()
	if f.Len() == 0 {
		q.mask[int(link)*q.words+int(vc)>>6] &^= 1 << (uint(vc) & 63)
	}
	return id
}

// Pick round-robins over the link's VCs and returns one with a queued
// packet and that queue's head, or -1, -1: the first nonempty VC at or
// after the link's pointer, wrapping around, exactly as a modulo scan
// from the pointer would find it. A hit moves the pointer past the VC.
func (q *Queues) Pick(link int32) (vc, head int32) {
	if q.words == 1 {
		m := q.mask[link]
		if m == 0 {
			return -1, -1
		}
		if hi := m >> uint(q.rr[link]); hi != 0 {
			vc = q.rr[link] + int32(bits.TrailingZeros64(hi))
		} else {
			vc = int32(bits.TrailingZeros64(m)) // wrap below the pointer
		}
	} else if vc = q.pickWide(link); vc < 0 {
		return -1, -1
	}
	q.rr[link] = (vc + 1) % int32(q.numVC)
	return vc, q.fifos[int(link)*q.numVC+int(vc)].Peek()
}

// pickWide finds Pick's VC on links with more than 64 VCs: the pointer
// word's upper bits, then the other words in circular order, then the
// pointer word's bits below the pointer.
func (q *Queues) pickWide(link int32) int32 {
	base, start := int(link)*q.words, q.rr[link]
	sw, sb := int(start)>>6, uint(start)&63
	if m := q.mask[base+sw] >> sb; m != 0 {
		return start + int32(bits.TrailingZeros64(m))
	}
	for i := 1; i < q.words; i++ {
		w := (sw + i) % q.words
		if m := q.mask[base+w]; m != 0 {
			return int32(w<<6 + bits.TrailingZeros64(m))
		}
	}
	if m := q.mask[base+sw] & (1<<sb - 1); m != 0 {
		return int32(sw<<6 + bits.TrailingZeros64(m))
	}
	return -1
}
