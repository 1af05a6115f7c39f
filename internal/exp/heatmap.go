package exp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// matrixTSVHeader is the exact header RenderMatrixTSV writes; parsing
// refuses anything else so silent column drift cannot misread metrics.
const matrixTSVHeader = "topology\tcondition\talgo_a\talgo_b\ta_mbps\tb_mbps\tratio\tjain\tsmooth_a_cov\tsmooth_b_cov\tutilization\tdegraded"

// ParseMatrixTSV parses a RenderMatrixTSV artifact back into cells, so
// heatmaps render from the deterministic on-disk artifact rather than
// requiring a rerun of the sweep. RenderMatrixTSV never writes NaN or an
// infinity, and a shade cannot be computed from one, so a non-finite
// number is a parse error like any other malformed field.
func ParseMatrixTSV(r io.Reader) ([]MatrixCell, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("exp: empty matrix TSV")
	}
	if sc.Text() != matrixTSVHeader {
		return nil, fmt.Errorf("exp: unrecognized matrix TSV header %q", sc.Text())
	}
	var cells []MatrixCell
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 12 {
			return nil, fmt.Errorf("exp: matrix TSV line %d: want 12 columns, got %d", line, len(f))
		}
		var c MatrixCell
		c.Topology, c.Condition, c.A, c.B = f[0], f[1], f[2], f[3]
		var err error
		for i, dst := range []*float64{&c.AMbps, &c.BMbps, &c.Ratio, &c.Jain, &c.SmoothA, &c.SmoothB, &c.Utilization} {
			*dst, err = strconv.ParseFloat(f[4+i], 64)
			if err == nil && (math.IsNaN(*dst) || math.IsInf(*dst, 0)) {
				err = fmt.Errorf("%q is not a finite number", f[4+i])
			}
			if err != nil {
				return nil, fmt.Errorf("exp: matrix TSV line %d col %d: %v", line, 5+i, err)
			}
		}
		if c.Degraded, err = strconv.ParseBool(f[11]); err != nil {
			return nil, fmt.Errorf("exp: matrix TSV line %d: degraded: %v", line, err)
		}
		cells = append(cells, c)
	}
	return cells, sc.Err()
}

// matrixMetric selects the value a heatmap shades.
func matrixMetric(c MatrixCell, metric string) (float64, error) {
	switch metric {
	case "ratio":
		return c.Ratio, nil
	case "jain":
		return c.Jain, nil
	case "utilization":
		return c.Utilization, nil
	}
	return 0, fmt.Errorf("exp: unknown heatmap metric %q (want ratio, jain, or utilization)", metric)
}

// heatGrid is one topology x condition block of the matrix, with row
// and column algorithms in first-appearance order (the deterministic
// sweep order).
type heatGrid struct {
	topo, cond string
	algos      []string
	cell       map[[2]string]MatrixCell
}

// groupCells splits cells into grids, preserving sweep order.
func groupCells(cells []MatrixCell) []*heatGrid {
	var grids []*heatGrid
	idx := map[[2]string]*heatGrid{}
	for _, c := range cells {
		k := [2]string{c.Topology, c.Condition}
		g, ok := idx[k]
		if !ok {
			g = &heatGrid{topo: c.Topology, cond: c.Condition, cell: map[[2]string]MatrixCell{}}
			idx[k] = g
			grids = append(grids, g)
		}
		if !slices.Contains(g.algos, c.A) {
			g.algos = append(g.algos, c.A)
		}
		if !slices.Contains(g.algos, c.B) {
			g.algos = append(g.algos, c.B)
		}
		g.cell[[2]string{c.A, c.B}] = c
	}
	return grids
}

// gridRange returns the least and greatest value of metric over g's
// cells that are not degraded: the range its shades are normalized
// over. A grid with every cell degraded has the range 0..0.
func gridRange(g *heatGrid, metric string) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, c := range g.cell {
		if c.Degraded {
			continue
		}
		v, _ := matrixMetric(c, metric)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// heatRamp maps a normalized value in [0,1] to an ASCII shade, light
// to dark.
var heatRamp = []byte(" .:-=+*#%@")

// normalize maps v into [0,1] within [lo,hi]; a flat range maps to the
// middle so uniform grids render uniformly instead of at an extreme, and
// so does a range too wide for a float64 to hold (Inf/Inf is NaN, which
// would index the ramp at MinInt; only a hand-written TSV gets there).
func normalize(v, lo, hi float64) float64 {
	if hi <= lo || math.IsInf(hi-lo, 0) {
		return 0.5
	}
	n := (v - lo) / (hi - lo)
	return math.Min(1, math.Max(0, n))
}

// RenderMatrixHeatmap renders cells as ASCII heatmaps, one grid per
// topology x condition (rows = algo A, columns = algo B), shading the
// chosen metric ("ratio", "jain", or "utilization") normalized over
// each grid's own range. Degraded cells render as '!'. The exact
// values stay available beneath each grid as a min/max legend.
func RenderMatrixHeatmap(cells []MatrixCell, metric string) (string, error) {
	if len(cells) == 0 {
		return "", fmt.Errorf("exp: no matrix cells to render")
	}
	if _, err := matrixMetric(MatrixCell{}, metric); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Matrix heatmap: %s (normalized per grid; ramp %q, degraded '!')\n", metric, heatRamp)
	for _, g := range groupCells(cells) {
		lo, hi := gridRange(g, metric)
		fmt.Fprintf(&sb, "\n[%s / %s]\n", g.topo, g.cond)
		width := 0
		for _, a := range g.algos {
			width = max(width, len(a))
		}
		// Column header: one character per column keeps the grid square;
		// the index legend below maps letters to algorithms.
		fmt.Fprintf(&sb, "%-*s ", width, "")
		for j := range g.algos {
			sb.WriteByte(colLabel(j))
		}
		sb.WriteByte('\n')
		for _, a := range g.algos {
			fmt.Fprintf(&sb, "%-*s ", width, a)
			for _, b := range g.algos {
				c, ok := g.cell[[2]string{a, b}]
				switch {
				case !ok:
					sb.WriteByte('?')
				case c.Degraded:
					sb.WriteByte('!')
				default:
					v, _ := matrixMetric(c, metric)
					n := normalize(v, lo, hi)
					sb.WriteByte(heatRamp[int(n*float64(len(heatRamp)-1)+0.5)])
				}
			}
			sb.WriteByte('\n')
		}
		for j, b := range g.algos {
			fmt.Fprintf(&sb, "  %c = %s\n", colLabel(j), b)
		}
		fmt.Fprintf(&sb, "  range: %.4g (%c) .. %.4g (%c)\n", lo, heatRamp[0], hi, heatRamp[len(heatRamp)-1])
	}
	return sb.String(), nil
}

// colLabel assigns single-character column labels a, b, ..., z, A, ...
func colLabel(j int) byte {
	if j < 26 {
		return byte('a' + j)
	}
	if j < 52 {
		return byte('A' + j - 26)
	}
	return '+'
}

// RenderMatrixHeatmapSVG renders the same grids as a standalone SVG:
// one colored square per cell (light yellow = grid minimum, dark red =
// maximum, grey = degraded), with algorithm labels and per-grid
// titles. The output is deterministic for a given cell list.
func RenderMatrixHeatmapSVG(cells []MatrixCell, metric string) (string, error) {
	if len(cells) == 0 {
		return "", fmt.Errorf("exp: no matrix cells to render")
	}
	if _, err := matrixMetric(MatrixCell{}, metric); err != nil {
		return "", err
	}
	grids := groupCells(cells)
	const (
		cellPx   = 28
		labelW   = 90
		titleH   = 24
		legendH  = 18
		marginPx = 10
	)
	// Lay grids out vertically; width follows the widest grid.
	maxAlgos := 0
	for _, g := range grids {
		maxAlgos = max(maxAlgos, len(g.algos))
	}
	gridH := func(g *heatGrid) int {
		return titleH + cellPx*(len(g.algos)+1) + legendH + marginPx
	}
	totalH := marginPx
	for _, g := range grids {
		totalH += gridH(g)
	}
	totalW := marginPx*2 + labelW + cellPx*(maxAlgos+1)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", totalW, totalH)
	y := marginPx
	for _, g := range grids {
		lo, hi := gridRange(g, metric)
		fmt.Fprintf(&sb, `<text x="%d" y="%d">%s / %s — %s</text>`+"\n", marginPx, y+14, xmlEscape(g.topo), xmlEscape(g.cond), metric)
		y += titleH
		// Column labels.
		for j, b := range g.algos {
			fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n",
				marginPx+labelW+j*cellPx+cellPx/2, y+cellPx-8, xmlEscape(shorten(b)))
		}
		y += cellPx
		for _, a := range g.algos {
			fmt.Fprintf(&sb, `<text x="%d" y="%d">%s</text>`+"\n", marginPx, y+cellPx/2+4, xmlEscape(shorten(a)))
			for j, b := range g.algos {
				x := marginPx + labelW + j*cellPx
				c, ok := g.cell[[2]string{a, b}]
				fill := "#cccccc"
				title := "missing"
				if ok && !c.Degraded {
					v, _ := matrixMetric(c, metric)
					fill = heatColor(normalize(v, lo, hi))
					title = fmt.Sprintf("%s vs %s: %.6g", a, b, v)
				} else if ok {
					fill = "#888888"
					title = fmt.Sprintf("%s vs %s: degraded", a, b)
				}
				fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#ffffff"><title>%s</title></rect>`+"\n",
					x, y, cellPx, cellPx, fill, xmlEscape(title))
			}
			y += cellPx
		}
		fmt.Fprintf(&sb, `<text x="%d" y="%d">range %.4g .. %.4g</text>`+"\n", marginPx, y+13, lo, hi)
		y += legendH + marginPx
	}
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

// heatColor maps [0,1] to a light-yellow -> dark-red ramp.
func heatColor(n float64) string {
	r := 255 - int(n*75)  // 255 -> 180
	g := 245 - int(n*215) // 245 -> 30
	b := 205 - int(n*175) // 205 -> 30
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// shorten trims long algorithm names for SVG labels.
func shorten(s string) string {
	if len(s) <= 10 {
		return s
	}
	return s[:9] + "…"
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// MatrixMetrics lists the metrics heatmaps can shade, sorted, for CLI
// usage strings.
func MatrixMetrics() []string { return []string{"jain", "ratio", "utilization"} }
