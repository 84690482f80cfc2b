package vcq

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// TestPickMatchesModuloScan drives random pushes, pops and picks and
// checks every Pick against the round-robin modulo scan it replaces —
// the first nonempty VC at or after the pointer, wrapping — and every
// Pop, and each touched link's Head and Len per VC, against slice FIFOs.
// Popped ids are pushed again, as the simulators recycle packet slots,
// so a linked list that loses a tail or keeps a stale next pointer shows
// as a wrong head or length. The VC counts straddle the one-word and
// multi-word bitmask layouts.
func TestPickMatchesModuloScan(t *testing.T) {
	for _, numVC := range []int{1, 5, 63, 64, 65, 70, 130} {
		t.Run(fmt.Sprint(numVC), func(t *testing.T) {
			const links = 5
			q := New(links, numVC)
			ref := make([][][]int32, links)
			rr := make([]int32, links)
			for l := range ref {
				ref[l] = make([][]int32, numVC)
			}
			rng := xrand.New(uint64(numVC))
			var free []int32 // popped ids, queued nowhere
			next := int32(0)
			for step := 0; step < 20000; step++ {
				link := int32(rng.IntN(links))
				vc := int32(rng.IntN(numVC))
				switch rng.IntN(3) {
				case 0:
					id := next
					if len(free) > 0 && rng.IntN(4) != 0 {
						id, free = free[len(free)-1], free[:len(free)-1]
					} else {
						next++
					}
					q.Push(link, vc, id)
					ref[link][vc] = append(ref[link][vc], id)
				case 1:
					if len(ref[link][vc]) == 0 {
						continue
					}
					got, want := q.Pop(link, vc), ref[link][vc][0]
					if got != want {
						t.Fatalf("step %d: Pop(%d, %d) = %d, want %d", step, link, vc, got, want)
					}
					ref[link][vc] = ref[link][vc][1:]
					free = append(free, got)
				case 2:
					want := int32(-1)
					for i := 0; i < numVC; i++ {
						c := (rr[link] + int32(i)) % int32(numVC)
						if len(ref[link][c]) > 0 {
							want, rr[link] = c, (c+1)%int32(numVC)
							break
						}
					}
					got, head := q.Pick(link)
					if got != want {
						t.Fatalf("step %d: Pick(%d) = %d, want %d", step, link, got, want)
					}
					if want >= 0 && head != ref[link][want][0] {
						t.Fatalf("step %d: Pick(%d) head = %d, want %d", step, link, head, ref[link][want][0])
					}
				}
				for c := int32(0); int(c) < numVC; c++ {
					wantHead := int32(-1)
					if len(ref[link][c]) > 0 {
						wantHead = ref[link][c][0]
					}
					if got := q.Head(link, c); got != wantHead {
						t.Fatalf("step %d: Head(%d, %d) = %d, want %d", step, link, c, got, wantHead)
					}
					if got, want := q.Len(link, c), len(ref[link][c]); got != want {
						t.Fatalf("step %d: Len(%d, %d) = %d, want %d", step, link, c, got, want)
					}
				}
			}
		})
	}
}

// TestFIFORewindsWhenDrained pins that a queue emptied by Pop reuses its
// backing array from the front, so a queue that keeps draining never
// grows it.
func TestFIFORewindsWhenDrained(t *testing.T) {
	var f FIFO
	for i := int32(0); i < 8; i++ {
		f.Push(i)
	}
	for f.Len() > 0 {
		f.Pop()
	}
	capBefore := cap(f.buf)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 8; i++ {
			f.Push(i)
		}
		for f.Len() > 0 {
			f.Pop()
		}
	})
	if allocs != 0 || cap(f.buf) != capBefore || f.head != 0 {
		t.Fatalf("drained queue did not rewind: %v allocs, cap %d -> %d, head %d",
			allocs, capBefore, cap(f.buf), f.head)
	}
}
