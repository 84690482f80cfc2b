package paths

import (
	"bytes"
	"testing"

	"repro/internal/ksp"
)

func TestDBWriteDeterministicAcrossWorkers(t *testing.T) {
	// Eager builds split work across goroutines; per-pair seed splitting
	// plus sorted emission must make the dump byte-identical no matter
	// the worker count. rEDKSP exercises the randomized selector.
	g := testGraph(t)
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		db := BuildAllPairs(g, ksp.Config{Alg: ksp.REDKSP, K: 4}, 42, workers)
		var buf bytes.Buffer
		if err := db.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: dump differs from workers=1 output", workers)
		}
	}
	// Two independent writes of the same DB must also match byte-for-byte
	// (map iteration order must not leak into the output).
	db := BuildAllPairs(g, ksp.Config{Alg: ksp.REDKSP, K: 4}, 42, 4)
	var a, b bytes.Buffer
	if err := db.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated Write of the same DB differs")
	}
}
