package analyze

import (
	"fmt"
	"html"
	"sort"
	"strings"
)

// layerColors maps blame layers / series names to fixed SVG colours.
var layerColors = map[string]string{
	LayerDisk:     "#c0392b",
	LayerElevator: "#e67e22",
	LayerXen:      "#8e44ad",
	LayerNet:      "#2980b9",
	LayerCPU:      "#7f8c8d",
	"vm":          "#2980b9",
	"dom0":        "#c0392b",
}

func colorOf(name string, i int) string {
	if c, ok := layerColors[name]; ok {
		return c
	}
	fallback := []string{"#16a085", "#d35400", "#2c3e50", "#f39c12"}
	return fallback[i%len(fallback)]
}

const (
	chartW  = 720.0
	chartH  = 120.0
	chartML = 60.0 // left margin for axis labels
)

// writePhaseTimeline draws the three phase windows as horizontal bars on
// a shared time axis.
func writePhaseTimeline(w *errWriter, r *Report) {
	span := r.Job.MakespanS
	if span <= 0 {
		return
	}
	x := func(ts float64) float64 { return chartML + (ts-r.Job.StartS)/span*(chartW-chartML-10) }
	h := 22.0
	total := 10 + h*float64(len(r.Phases)) + 24
	w.printf("<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", chartW, total, chartW, total)
	colors := []string{"#2980b9", "#e67e22", "#27ae60"}
	for i, p := range r.Phases {
		y := 10 + float64(i)*h
		w.printf("<text x=\"4\" y=\"%s\" font-size=\"11\">%s</text>", f1(y+h*0.65), p.Name)
		w.printf("<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" fill=\"%s\" opacity=\"0.8\"/>\n",
			f1(x(p.StartS)), f1(y+2), f1(x(p.EndS)-x(p.StartS)), f1(h-6), colors[i%len(colors)])
	}
	axisY := 10 + h*float64(len(r.Phases)) + 4
	w.printf("<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#888\"/>\n",
		f1(chartML), f1(axisY), f1(chartW-10), f1(axisY))
	w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\">%.1fs</text>", f1(chartML), f1(axisY+14), r.Job.StartS)
	w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\" text-anchor=\"end\">%.1fs</text>\n",
		f1(chartW-10), f1(axisY+14), r.Job.StartS+span)
	w.printf("</svg>\n")
}

// writeBlameBars draws one stacked horizontal bar per critical segment
// partitioning its duration across the blame layers.
func writeBlameBars(w *errWriter, r *Report) {
	if len(r.Critical.Segments) == 0 {
		return
	}
	maxDur := 0.0
	for _, s := range r.Critical.Segments {
		if s.DurationS > maxDur {
			maxDur = s.DurationS
		}
	}
	if maxDur <= 0 {
		return
	}
	h := 24.0
	total := 10 + h*float64(len(r.Critical.Segments)) + 20
	w.printf("<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", chartW, total, chartW, total)
	scale := (chartW - chartML - 10) / maxDur
	for i, seg := range r.Critical.Segments {
		y := 10 + float64(i)*h
		w.printf("<text x=\"4\" y=\"%s\" font-size=\"11\">%s</text>", f1(y+h*0.6), seg.Phase)
		x := chartML
		for _, layer := range Layers() {
			wd := seg.BlameS[layer] * scale
			if wd <= 0 {
				continue
			}
			w.printf("<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" fill=\"%s\"><title>%s %.3fs</title></rect>",
				f1(x), f1(y+2), f1(wd), f1(h-8), colorOf(layer, 0), layer, seg.BlameS[layer])
			x += wd
		}
		w.printf("\n")
	}
	// Legend.
	lx := chartML
	ly := 10 + h*float64(len(r.Critical.Segments)) + 6
	for _, layer := range Layers() {
		w.printf("<rect x=\"%s\" y=\"%s\" width=\"10\" height=\"10\" fill=\"%s\"/>", f1(lx), f1(ly), colorOf(layer, 0))
		w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\">%s</text>", f1(lx+14), f1(ly+9), layer)
		lx += 14 + 8*float64(len(layer)) + 16
	}
	w.printf("\n</svg>\n")
}

// writeDepthChart plots int32 series as polylines.
func writeDepthChart(w *errWriter, ts *Timeseries, title string, series map[string][]int32) {
	f := map[string][]float64{}
	for name, v := range series {
		fv := make([]float64, len(v))
		for i, x := range v {
			fv[i] = float64(x)
		}
		f[name] = fv
	}
	writeLineChart(w, ts, title, f)
}

// writeLineChart plots float series against the shared bucket axis.
func writeLineChart(w *errWriter, ts *Timeseries, title string, series map[string][]float64) {
	names := make([]string, 0, len(series))
	maxV := 0.0
	for name, v := range series {
		names = append(names, name)
		for _, x := range v {
			if x > maxV {
				maxV = x
			}
		}
	}
	sort.Strings(names)
	if maxV <= 0 {
		maxV = 1
	}
	total := chartH + 36
	w.printf("<h3>%s</h3>\n", html.EscapeString(title))
	w.printf("<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", chartW, total, chartW, total)
	// Axes.
	w.printf("<line x1=\"%s\" y1=\"5\" x2=\"%s\" y2=\"%s\" stroke=\"#888\"/>", f1(chartML), f1(chartML), f1(chartH+5))
	w.printf("<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#888\"/>\n",
		f1(chartML), f1(chartH+5), f1(chartW-10), f1(chartH+5))
	w.printf("<text x=\"%s\" y=\"14\" font-size=\"10\" fill=\"#555\" text-anchor=\"end\">%s</text>", f1(chartML-4), fmtShort(maxV))
	w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\" text-anchor=\"end\">0</text>\n", f1(chartML-4), f1(chartH+5))
	endS := ts.StartS + ts.IntervalS*float64(ts.Samples)
	w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\">%.1fs</text>", f1(chartML), f1(chartH+20), ts.StartS)
	w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#555\" text-anchor=\"end\">%.1fs</text>\n",
		f1(chartW-10), f1(chartH+20), endS)
	for i, name := range names {
		v := series[name]
		if len(v) < 2 {
			continue
		}
		var b strings.Builder
		dx := (chartW - chartML - 10) / float64(len(v)-1)
		for j, x := range v {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f1(chartML + float64(j)*dx))
			b.WriteByte(',')
			b.WriteString(f1(chartH + 5 - x/maxV*chartH))
		}
		w.printf("<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
			b.String(), colorOf(name, i))
		w.printf("<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s</text>\n",
			f1(chartW-10-8*float64(len(name))), f1(16+12*float64(i)), colorOf(name, i), name)
	}
	w.printf("</svg>\n")
}

// f1 formats an SVG coordinate with one decimal, trimming ".0" for
// compactness while staying deterministic.
func f1(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	return strings.TrimSuffix(s, ".0")
}

func fmtShort(v float64) string {
	if v >= 100 || v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
