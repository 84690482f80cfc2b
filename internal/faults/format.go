package faults

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The schedule text format, in the same line-oriented family as the
// PATHDB and topology archives:
//
//	FAULTS 1
//	# comment
//	down <cycle> <u> <v>
//	up <cycle> <u> <v>
//
// Events may appear in any order; parsing sorts them by cycle. Blank
// lines and '#' comments are ignored. Format always emits events sorted,
// so Parse(s.Format()) reproduces s exactly.

// Format renders the schedule in the text format.
func (s *Schedule) Format() string {
	var sb strings.Builder
	sb.WriteString("FAULTS 1\n")
	for _, e := range s.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Write writes the schedule in the text format.
func (s *Schedule) Write(w io.Writer) error {
	_, err := io.WriteString(w, s.Format())
	return err
}

// Parse reads a schedule in the text format.
func Parse(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}
	hdr, ok := next()
	if !ok || hdr != "FAULTS 1" {
		return nil, fmt.Errorf("faults: bad header %q (want \"FAULTS 1\")", hdr)
	}
	var events []Event
	for {
		s, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(s)
		if len(fields) != 4 {
			return nil, fmt.Errorf("faults: line %d: want \"down|up <cycle> <u> <v>\", got %q", line, s)
		}
		var e Event
		switch fields[0] {
		case "down":
			e.Up = false
		case "up":
			e.Up = true
		default:
			return nil, fmt.Errorf("faults: line %d: unknown verb %q", line, fields[0])
		}
		at, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad cycle: %v", line, err)
		}
		u, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad node: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad node: %v", line, err)
		}
		e.At, e.U, e.V = at, int32(u), int32(v)
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewSchedule(events)
}

// ParseSpec resolves a command-line fault specification into a schedule:
//
//	random:<n>@<cycle>[,<n>@<cycle>...]  n seeded-random links down at cycle
//	<path>                               a schedule file in the text format
//	"" or "none"                         an empty schedule
//
// The random form needs the graph (to enumerate links) and a seed; each
// comma-separated group draws an independent edge set, so
// "random:2@1000,2@2000" fails two links at cycle 1000 and two more
// (possibly overlapping) at cycle 2000.
func ParseSpec(spec string, g *graph.Graph, seed uint64) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return MustSchedule(nil), nil
	}
	if rest, ok := strings.CutPrefix(spec, "random:"); ok {
		var events []Event
		for gi, group := range strings.Split(rest, ",") {
			nStr, atStr, ok := strings.Cut(group, "@")
			if !ok {
				return nil, fmt.Errorf("faults: bad random group %q (want n@cycle)", group)
			}
			n, err := strconv.Atoi(strings.TrimSpace(nStr))
			if err != nil {
				return nil, fmt.Errorf("faults: bad link count in %q: %v", group, err)
			}
			at, err := strconv.ParseInt(strings.TrimSpace(atStr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad cycle in %q: %v", group, err)
			}
			sub, err := Random(g, n, at, xrand.New(xrand.Mix64(seed^uint64(gi)<<32^0xfa0175)))
			if err != nil {
				return nil, err
			}
			events = append(events, sub.Events()...)
		}
		return NewSchedule(events)
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("faults: spec %q is neither random:<n>@<cycle> nor a readable schedule file: %w", spec, err)
	}
	defer f.Close()
	return Parse(f)
}
