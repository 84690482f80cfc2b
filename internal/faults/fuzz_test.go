package faults

import (
	"testing"
)

// FuzzScheduleParse feeds arbitrary text through Parse. Valid inputs must
// round-trip — formatting the parsed schedule and parsing again yields the
// identical schedule — and invalid inputs must produce an error, never a
// panic.
func FuzzScheduleParse(f *testing.F) {
	f.Add("FAULTS 1\n")
	f.Add("FAULTS 1\ndown 100 0 1\nup 200 0 1\n")
	f.Add("FAULTS 1\n# comment\n\n  down 5 3 4\n")
	f.Add("FAULTS 1\ndown 9223372036854775807 2147483647 0\n")
	f.Add("PATHS 1\ndown 1 0 1\n")
	f.Add("FAULTS 1\ndown -1 0 1\n")
	f.Add("FAULTS 1\nup 0 7 7\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := parseString(input)
		if err != nil {
			return
		}
		text := s.Format()
		back, err := parseString(text)
		if err != nil {
			t.Fatalf("Format output failed to parse: %v\n%s", err, text)
		}
		if back.Format() != text {
			t.Fatalf("round trip not fixed:\n%q\nvs\n%q", text, back.Format())
		}
		if back.Len() != s.Len() {
			t.Fatalf("round trip changed event count: %d vs %d", s.Len(), back.Len())
		}
	})
}
