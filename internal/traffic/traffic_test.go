package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestRandomPermutation(t *testing.T) {
	rng := xrand.New(1)
	p := RandomPermutation(100, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sendCount := map[int]int{}
	recvCount := map[int]int{}
	for _, f := range p.Flows {
		sendCount[f.Src]++
		recvCount[f.Dst]++
	}
	for term, c := range sendCount {
		if c > 1 {
			t.Fatalf("terminal %d sends %d times", term, c)
		}
	}
	for term, c := range recvCount {
		if c > 1 {
			t.Fatalf("terminal %d receives %d times", term, c)
		}
	}
	// A uniform permutation of 100 has about 1 fixed point; almost all
	// terminals communicate.
	if len(p.Flows) < 90 {
		t.Fatalf("only %d flows", len(p.Flows))
	}
}

func TestShift(t *testing.T) {
	p := Shift(10, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 10 {
		t.Fatalf("flows = %d", len(p.Flows))
	}
	for _, f := range p.Flows {
		if f.Dst != (f.Src+3)%10 {
			t.Fatalf("bad shift flow %v", f)
		}
	}
}

func TestShiftPanicsOnBadN(t *testing.T) {
	for _, bad := range []int{0, 10, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Shift(10,%d) did not panic", bad)
				}
			}()
			Shift(10, bad)
		}()
	}
}

func TestRandomShiftRange(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 50; i++ {
		p := RandomShift(17, rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(p.Flows) != 17 {
			t.Fatalf("flows = %d", len(p.Flows))
		}
	}
}

func TestRandomX(t *testing.T) {
	rng := xrand.New(3)
	p := RandomX(50, 5, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	perSrc := map[int]map[int]bool{}
	for _, f := range p.Flows {
		if perSrc[f.Src] == nil {
			perSrc[f.Src] = map[int]bool{}
		}
		if perSrc[f.Src][f.Dst] {
			t.Fatalf("duplicate destination for %d", f.Src)
		}
		perSrc[f.Src][f.Dst] = true
	}
	for s := 0; s < 50; s++ {
		if len(perSrc[s]) != 5 {
			t.Fatalf("terminal %d has %d destinations, want 5", s, len(perSrc[s]))
		}
	}
}

func TestAllToAll(t *testing.T) {
	p := AllToAll(6)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 30 {
		t.Fatalf("flows = %d, want 30", len(p.Flows))
	}
}

func TestUniformSampler(t *testing.T) {
	u := Uniform{N: 10}
	rng := xrand.New(4)
	counts := map[int]int{}
	for i := 0; i < 9000; i++ {
		d, ok := u.Dest(3, rng)
		if !ok || d == 3 || d < 0 || d >= 10 {
			t.Fatalf("bad dest %d ok=%v", d, ok)
		}
		counts[d]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform sampler skewed at %d: %d", d, c)
		}
	}
	if _, ok := (Uniform{N: 1}).Dest(0, rng); ok {
		t.Fatal("single-terminal uniform should not send")
	}
}

func TestFixedSampler(t *testing.T) {
	p := Shift(8, 2)
	s := NewFixedSampler(p)
	rng := xrand.New(5)
	for src := 0; src < 8; src++ {
		d, ok := s.Dest(src, rng)
		if !ok || d != (src+2)%8 {
			t.Fatalf("src %d -> %d ok=%v", src, d, ok)
		}
	}
	// Fixed point in a permutation: no destination.
	perm := Pattern{Name: "perm", NumTerminals: 3, Flows: []Flow{{0, 1}}}
	fs := NewFixedSampler(perm)
	if _, ok := fs.Dest(2, rng); ok {
		t.Fatal("terminal without flows returned a destination")
	}
	// Multi-destination source samples all destinations.
	multi := NewFixedSampler(Pattern{NumTerminals: 4, Flows: []Flow{{0, 1}, {0, 2}, {0, 3}}})
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		d, _ := multi.Dest(0, rng)
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Fatalf("multi-dest sampler covered %d destinations", len(seen))
	}
}

func TestDims2D(t *testing.T) {
	cases := []struct{ n, a, b int }{
		{3600, 60, 60},
		{288, 18, 16},
		{12, 4, 3},
		{7, 7, 1},
	}
	for _, c := range cases {
		a, b := Dims2D(c.n)
		if a != c.a || b != c.b {
			t.Errorf("Dims2D(%d) = (%d,%d), want (%d,%d)", c.n, a, b, c.a, c.b)
		}
		if a*b != c.n {
			t.Errorf("Dims2D(%d) does not factor", c.n)
		}
	}
}

func TestDims3D(t *testing.T) {
	// The paper uses 16x15x15 for 3600 ranks.
	a, b, c := Dims3D(3600)
	if a != 16 || b != 15 || c != 15 {
		t.Fatalf("Dims3D(3600) = (%d,%d,%d), want (16,15,15)", a, b, c)
	}
	f := func(raw uint16) bool {
		n := int(raw%2000) + 2
		x, y, z := Dims3D(n)
		return x*y*z == n && x >= y && y >= z && z >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStencil2DNN(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil2DNN, Ranks: 36, TotalBytes: 1000})
	// 6x6 grid, 4 neighbours each, all distinct.
	if len(w.Flows) != 36*4 {
		t.Fatalf("flows = %d, want 144", len(w.Flows))
	}
	for _, f := range w.Flows {
		if f.Bytes != 250 {
			t.Fatalf("flow bytes = %d, want 250", f.Bytes)
		}
		if f.Src == f.Dst {
			t.Fatalf("self flow %v", f)
		}
	}
	// Symmetry: every flow has a reverse (stencil exchange is symmetric).
	set := map[[2]int]bool{}
	for _, f := range w.Flows {
		set[[2]int{f.Src, f.Dst}] = true
	}
	for _, f := range w.Flows {
		if !set[[2]int{f.Dst, f.Src}] {
			t.Fatalf("flow %v has no reverse", f)
		}
	}
}

func TestStencil2DNNdiag(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil2DNNDiag, Ranks: 36, TotalBytes: 800})
	if len(w.Flows) != 36*8 {
		t.Fatalf("flows = %d, want 288", len(w.Flows))
	}
	if w.Flows[0].Bytes != 100 {
		t.Fatalf("bytes = %d, want 100", w.Flows[0].Bytes)
	}
}

func TestStencil3DNN(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil3DNN, Ranks: 27, TotalBytes: 600})
	// 3x3x3 torus: +1 and -1 in each dimension alias (3-cycle), still 6
	// distinct neighbours per rank.
	if w.NumRanks != 27 {
		t.Fatalf("ranks = %d", w.NumRanks)
	}
	perRank := map[int]int{}
	for _, f := range w.Flows {
		perRank[f.Src]++
	}
	for r, c := range perRank {
		if c != 6 {
			t.Fatalf("rank %d has %d neighbours, want 6", r, c)
		}
	}
}

func TestStencil3DNNdiag(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil3DNNDiag, Ranks: 64, TotalBytes: 2600})
	// 4x4x4: all 26 neighbours distinct.
	perRank := map[int]int{}
	for _, f := range w.Flows {
		perRank[f.Src]++
	}
	for r, c := range perRank {
		if c != 26 {
			t.Fatalf("rank %d has %d neighbours, want 26", r, c)
		}
	}
	if w.Flows[0].Bytes != 100 {
		t.Fatalf("bytes = %d, want 100", w.Flows[0].Bytes)
	}
}

func TestStencilWraparoundAliasing(t *testing.T) {
	// 2x2 grid: +1 and -1 alias in both dimensions; each rank has only 2
	// distinct neighbours and bytes split between them.
	w := Stencil(StencilConfig{Kind: Stencil2DNN, Ranks: 4, TotalBytes: 1000})
	perRank := map[int]int{}
	for _, f := range w.Flows {
		perRank[f.Src]++
		if f.Bytes != 500 {
			t.Fatalf("bytes = %d, want 500", f.Bytes)
		}
	}
	for r, c := range perRank {
		if c != 2 {
			t.Fatalf("rank %d has %d neighbours, want 2", r, c)
		}
	}
}

func TestDefaultTotalBytes(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil2DNN, Ranks: 16})
	var perSrc int64
	for _, f := range w.Flows {
		if f.Src == 0 {
			perSrc += f.Bytes
		}
	}
	if perSrc != DefaultTotalBytes {
		t.Fatalf("rank 0 sends %d bytes, want %d", perSrc, DefaultTotalBytes)
	}
}

func TestMappings(t *testing.T) {
	lin := LinearMapping(5)
	for i, v := range lin {
		if v != i {
			t.Fatalf("linear mapping not identity: %v", lin)
		}
	}
	rng := xrand.New(6)
	rm := RandomMapping(100, rng)
	seen := make([]bool, 100)
	for _, v := range rm {
		if seen[v] {
			t.Fatal("random mapping not a permutation")
		}
		seen[v] = true
	}
}

func TestWorkloadApply(t *testing.T) {
	w := Workload{Name: "x", NumRanks: 3, Flows: []SizedFlow{{0, 1, 10}, {1, 2, 20}}}
	m := Mapping{5, 6, 7}
	out := w.Apply(m)
	if out[0] != (SizedFlow{5, 6, 10}) || out[1] != (SizedFlow{6, 7, 20}) {
		t.Fatalf("apply = %v", out)
	}
}

func TestWorkloadTotalBytes(t *testing.T) {
	w := Stencil(StencilConfig{Kind: Stencil2DNN, Ranks: 16, TotalBytes: 1000})
	if w.TotalBytes() != 16*1000 {
		t.Fatalf("total = %d", w.TotalBytes())
	}
}

func TestStencilByName(t *testing.T) {
	for _, k := range StencilKinds {
		got, err := StencilByName(k.String())
		if err != nil || got != k {
			t.Errorf("StencilByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := StencilByName("4DNN"); err == nil {
		t.Error("bogus stencil accepted")
	}
}

func TestPatternValidateCatchesBadFlows(t *testing.T) {
	bad := Pattern{NumTerminals: 3, Flows: []Flow{{0, 3}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range flow accepted")
	}
	self := Pattern{NumTerminals: 3, Flows: []Flow{{1, 1}}}
	if self.Validate() == nil {
		t.Fatal("self flow accepted")
	}
}
