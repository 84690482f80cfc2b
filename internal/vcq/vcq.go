// Package vcq holds the per-link virtual-channel queues both simulators
// (internal/flitsim and internal/appsim) forward from: one FIFO of packet
// ids per (link, VC), kept as an intrusive linked list through a per-id
// next array, a nonempty-VC bitmask per link, and a round-robin pointer
// per link. Push and Pop are a few stores each and allocate nothing once
// the id space has grown. Pick resolves a link's next VC from the bitmask
// with bits.TrailingZeros64, in O(mask words) instead of O(VCs).
package vcq

import "math/bits"

// FIFO is a slice-backed queue of packet ids, for queues that are not
// per (link, VC): flitsim's unbounded per-terminal source queues.
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
// Each FIFO is a linked list of packet ids: the queue holds its head and
// tail, and next[id] is the id queued behind id. A packet id therefore
// sits in at most one queue at a time. Push and Pop keep the bitmasks in
// step; nothing else may touch them.
type Queues struct {
	numVC int
	words int      // bitmask words per link
	lists []list   // [link*numVC + vc]
	next  []int32  // next[id]: the id queued behind id, -1 at a tail
	mask  []uint64 // [link*words + vc/64]: bit vc%64 set while (link, vc) is nonempty
	rr    []int32  // per link: the VC Pick tries first
}

// list is one (link, VC) queue: its first and last packet ids, head -1
// when empty (tail is then stale).
type list struct{ head, tail int32 }

// New returns empty queues for links links of numVC VCs each.
func New(links, numVC int) Queues {
	words := (numVC + 63) / 64
	lists := make([]list, links*numVC)
	for i := range lists {
		lists[i].head = -1
	}
	return Queues{
		numVC: numVC,
		words: words,
		lists: lists,
		mask:  make([]uint64, links*words),
		rr:    make([]int32, links),
	}
}

// Head returns the first packet of (link, vc), or -1 when it is empty.
func (q *Queues) Head(link, vc int32) int32 { return q.lists[int(link)*q.numVC+int(vc)].head }

// Len returns the number of packets queued on (link, vc). It walks the
// list, so it is for fault flushes and accounting, not the hot loop.
func (q *Queues) Len(link, vc int32) int {
	n := 0
	for id := q.Head(link, vc); id >= 0; id = q.next[id] {
		n++
	}
	return n
}

// Push appends packet id, which must not be queued anywhere, to
// (link, vc).
func (q *Queues) Push(link, vc, id int32) {
	if int(id) >= len(q.next) {
		q.next = append(q.next, make([]int32, int(id)+1-len(q.next))...)
	}
	q.next[id] = -1
	l := &q.lists[int(link)*q.numVC+int(vc)]
	if l.head < 0 {
		l.head = id
		q.mask[int(link)*q.words+int(vc)>>6] |= 1 << (uint(vc) & 63)
	} else {
		q.next[l.tail] = id
	}
	l.tail = id
}

// Pop removes and returns the head packet of the nonempty queue
// (link, vc).
func (q *Queues) Pop(link, vc int32) int32 {
	l := &q.lists[int(link)*q.numVC+int(vc)]
	id := l.head
	l.head = q.next[id]
	if l.head < 0 {
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
	if next := vc + 1; int(next) < q.numVC {
		q.rr[link] = next
	} else {
		q.rr[link] = 0
	}
	return vc, q.lists[int(link)*q.numVC+int(vc)].head
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
