package obs

// Quantile estimates the q-quantile (0 <= q <= 1) of the histogram by
// linear interpolation within the bucket containing the target rank — the
// standard Prometheus-style estimator. Conventions:
//
//   - The first bucket's lower bound is 0 when its edge is positive
//     (latencies, distances), otherwise the edge itself.
//   - Ranks landing in the overflow bucket return the last edge (there is
//     no upper bound to interpolate towards).
//   - An empty histogram returns 0.
//
// The estimate is deterministic for identical bucket contents, which keeps
// report output byte-stable across runs.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Edges) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if c > 0 && next >= rank {
			if i >= len(h.Edges) {
				// Overflow bucket: clamp to the last finite edge.
				return h.Edges[len(h.Edges)-1]
			}
			upper := h.Edges[i]
			lower := 0.0
			if i > 0 {
				lower = h.Edges[i-1]
			} else if upper <= 0 {
				lower = upper
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + frac*(upper-lower)
		}
		cum = next
	}
	return h.Edges[len(h.Edges)-1]
}

// Snapshot copies the live histogram into its exportable form.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	edges, counts := h.Buckets()
	return HistSnapshot{Edges: edges, Counts: counts, Sum: h.sum, Count: h.n}
}

// Quantile estimates the q-quantile of the live histogram (0 for nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return HistSnapshot{Edges: h.edges, Counts: h.counts, Sum: h.sum, Count: h.n}.Quantile(q)
}
