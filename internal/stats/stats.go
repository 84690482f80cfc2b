// Package stats provides the report formatting used by the experiment
// harness: aligned-text / CSV table rendering and text bar charts for
// reproducing the paper's tables and figure series, and the improvement
// percentage Tables V and VI print. The harness (internal/exp) takes the
// means itself.
package stats

import (
	"fmt"
	"strings"
)

// Improvement returns the percentage by which newVal improves over
// baseline when smaller is better (e.g. communication time):
// (baseline-new)/baseline * 100.
func Improvement(baseline, newVal float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - newVal) / baseline * 100
}

// Table accumulates rows and renders them as aligned text or CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row of formatted values: each argument is rendered
// with %v, floats with 3 decimals.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(row...)
}

// String renders the aligned-text form.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the comma-separated form (quoting cells that contain commas
// or quotes).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
