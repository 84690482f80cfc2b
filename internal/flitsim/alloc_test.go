package flitsim

import "testing"

// TestWheelSlotRecycling pins the wheel's spare-swap scheme: take hands
// the emptied slot's backing array to the next take, so steady-state
// scheduling allocates nothing — and, critically, a schedule at exactly
// now+len(slots) (which aliases onto the slot index take just returned)
// lands in a different backing array than the slice the caller is still
// iterating.
func TestWheelSlotRecycling(t *testing.T) {
	w := newWheel(4) // 5 slots
	w.take(0)
	w.schedule(5, arrival{pkt: 1}) // boundary: aliases slot index 0
	w.schedule(3, arrival{pkt: 2})
	for now := int64(1); now <= 2; now++ {
		if out := w.take(now); len(out) != 0 {
			t.Fatalf("take(%d) returned %d arrivals", now, len(out))
		}
	}
	out := w.take(3)
	if len(out) != 1 || out[0].pkt != 2 {
		t.Fatalf("take(3) = %+v", out)
	}
	// The boundary arrival must still be intact and fire at 5.
	w.take(4)
	out = w.take(5)
	if len(out) != 1 || out[0].pkt != 1 {
		t.Fatalf("take(5) = %+v", out)
	}

	// Aliasing regression: while iterating a just-taken slot, a boundary
	// schedule must not overwrite the slice being read.
	w2 := newWheel(4)
	w2.take(0)
	w2.schedule(1, arrival{pkt: 10})
	w2.schedule(1, arrival{pkt: 11})
	taken := w2.take(1)
	w2.schedule(6, arrival{pkt: 99}) // same slot index as cycle 1
	if taken[0].pkt != 10 || taken[1].pkt != 11 {
		t.Fatalf("boundary schedule clobbered the taken slice: %+v", taken)
	}

	// Steady state allocates nothing once every slot owns a grown array.
	for now := int64(6); now < 30; now++ {
		w2.take(now)
		w2.schedule(now+3, arrival{pkt: int32(now)})
	}
	clock := int64(30)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 10; i++ {
			w2.take(clock)
			w2.schedule(clock+3, arrival{pkt: 7})
			w2.schedule(clock+5, arrival{pkt: 8})
			clock++
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state wheel churn allocates %v per run, want 0", avg)
	}
}

// TestSteadyStateAllocsFlat is the long-run allocation regression for the
// whole hot loop: after warmup (queues grown, packet pool populated, path
// DB filled), stepping must allocate nothing, whether the network is busy
// or mostly empty (the sparse active-set scans at load 0.05).
func TestSteadyStateAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		load float64
	}{
		{"cycle-load0.3", 0.3},
		{"cycle-load0.05", 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(t, tc.load, 21)
			s := New(cfg)
			s.Step(10000)
			avg := testing.AllocsPerRun(50, func() { s.Step(200) })
			if avg > 0.5 {
				t.Fatalf("steady-state Step allocates %v per 200 cycles, want ~0", avg)
			}
		})
	}
}
