package metrics

import (
	"fmt"
	"strings"
)

// Plot renders the timeline as an ASCII chart in the style of the paper's
// throughput figures: time on the X axis, served requests/second on the Y
// axis, with vertical markers at annotated instants (fault injection,
// repair). height is the number of character rows for the Y axis; width
// the number of columns (bins are averaged into columns).
func (tl Timeline) Plot(height, width int) string {
	if height < 2 {
		height = 8
	}
	if width < 10 {
		width = 72
	}
	n := len(tl.Points)
	if n == 0 {
		return "(empty timeline)\n"
	}
	if width > n {
		width = n
	}
	// Downsample bins into columns.
	cols := make([]float64, width)
	max := 0.0
	for c := 0; c < width; c++ {
		lo, hi := c*n/width, (c+1)*n/width
		if hi == lo {
			hi = lo + 1
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += tl.Points[i].Throughput
		}
		cols[c] = sum / float64(hi-lo)
		if cols[c] > max {
			max = cols[c]
		}
	}
	if max == 0 {
		max = 1
	}
	// Mark columns.
	markCol := make(map[int]byte)
	for _, m := range tl.Marks {
		bin := int(m.At / tl.Bin)
		if bin >= n {
			bin = n - 1
		}
		c := bin * width / n
		label := byte('*')
		switch {
		case strings.Contains(m.Label, "injected"):
			label = 'F'
		case strings.Contains(m.Label, "repaired"):
			label = 'R'
		}
		if _, taken := markCol[c]; !taken || label != '*' {
			markCol[c] = label
		}
	}

	var b strings.Builder
	for row := height; row >= 1; row-- {
		threshold := max * (float64(row) - 0.5) / float64(height)
		fmt.Fprintf(&b, "%8.0f |", max*float64(row)/float64(height))
		for c := 0; c < width; c++ {
			if cols[c] >= threshold {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	// X axis with marks.
	fmt.Fprintf(&b, "%8s +", "")
	for c := 0; c < width; c++ {
		if label, ok := markCol[c]; ok {
			b.WriteByte(label)
		} else {
			b.WriteByte('-')
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%8s  0s%*s\n", "", width-2, fmtDur(tl.End()))
	fmt.Fprintf(&b, "%8s  (F = fault injected, R = component repaired)\n", "")
	return b.String()
}
