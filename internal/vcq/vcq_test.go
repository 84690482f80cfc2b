package vcq

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// TestPickMatchesModuloScan drives random pushes, pops and picks and
// checks every Pick against the round-robin modulo scan it replaces —
// the first nonempty VC at or after the pointer, wrapping — and every
// Pop against a reference FIFO. The VC counts straddle the one-word and
// multi-word bitmask layouts.
func TestPickMatchesModuloScan(t *testing.T) {
	for _, numVC := range []int{1, 5, 63, 64, 65, 70, 130} {
		t.Run(fmt.Sprint(numVC), func(t *testing.T) {
			const links = 3
			q := New(links, numVC)
			ref := make([][][]int32, links)
			rr := make([]int32, links)
			for l := range ref {
				ref[l] = make([][]int32, numVC)
			}
			rng := xrand.New(uint64(numVC))
			next := int32(0)
			for step := 0; step < 20000; step++ {
				link := int32(rng.IntN(links))
				vc := int32(rng.IntN(numVC))
				switch rng.IntN(3) {
				case 0:
					q.Push(link, vc, next)
					ref[link][vc] = append(ref[link][vc], next)
					next++
				case 1:
					if len(ref[link][vc]) == 0 {
						continue
					}
					if got, want := q.Pop(link, vc), ref[link][vc][0]; got != want {
						t.Fatalf("step %d: Pop(%d, %d) = %d, want %d", step, link, vc, got, want)
					}
					ref[link][vc] = ref[link][vc][1:]
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
				if got, want := q.Len(link, vc), len(ref[link][vc]); got != want {
					t.Fatalf("step %d: Len(%d, %d) = %d, want %d", step, link, vc, got, want)
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
