package exp

import (
	"fmt"
	"slices"
	"testing"
)

// TestRunJobsInJobOrder checks the grid's ordering guarantees on four
// workers: job i gets the row-major indices of i, fold sees the jobs in
// job order, and of several failed jobs the first in job order wins, with
// nothing folded from it on.
func TestRunJobsInJobOrder(t *testing.T) {
	g := jobGrid{3, 2, 4}
	var folded []int
	err := runJobs(g, 4, func(i int, j []int) (int, error) {
		if want := []int{i / 8, i / 4 % 2, i % 4}; !slices.Equal(j, want) {
			t.Errorf("job %d has indices %v, want %v", i, j, want)
		}
		if i == 13 || i == 21 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}, func(_ []int, v int) { folded = append(folded, v) })
	if err == nil || err.Error() != "job 13 failed" {
		t.Fatalf("err = %v, want job 13's", err)
	}
	if len(folded) != 13 {
		t.Fatalf("folded %d jobs, want the 13 before job 13", len(folded))
	}
	for i, v := range folded {
		if v != i {
			t.Fatalf("fold saw job %d at position %d", v, i)
		}
	}
}
