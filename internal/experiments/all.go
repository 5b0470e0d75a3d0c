package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Renderable is any experiment result.
type Renderable interface{ Render() string }

// Entry names one experiment of the suite. Run returns the rendered
// result or the error that prevented it (e.g. a drained simulation in a
// Runner-based experiment).
type Entry struct {
	ID  string
	Run func(Config) (Renderable, error)
}

// Suite lists every paper artefact in order of appearance.
func Suite() []Entry {
	return []Entry{
		{"fig1", func(c Config) (Renderable, error) { return Fig1(c), nil }},
		{"fig2", func(c Config) (Renderable, error) { return Fig2(c), nil }},
		{"table1", func(c Config) (Renderable, error) { return Table1(c), nil }},
		{"fig3", func(c Config) (Renderable, error) { return Fig3(c), nil }},
		{"fig4", func(c Config) (Renderable, error) { return Fig4(c), nil }},
		{"table2", func(c Config) (Renderable, error) { return Table2(c), nil }},
		{"fig5", func(c Config) (Renderable, error) { return Fig5(c), nil }},
		{"fig6", func(c Config) (Renderable, error) { return Fig6(c) }},
		{"fig7a", func(c Config) (Renderable, error) { return Fig7a(c) }},
		{"fig7b", func(c Config) (Renderable, error) { return Fig7b(c) }},
		{"fig7c", func(c Config) (Renderable, error) { return Fig7c(c) }},
		{"fig7d", func(c Config) (Renderable, error) { return Fig7d(c) }},
		{"fig8", func(c Config) (Renderable, error) { return Fig8(c) }},
	}
}

// All runs the whole suite (or the named subset), writes the rendered
// artefacts to w and each artefact's raw data as <csvDir>/<id>.csv when
// csvDir is non-empty.
func All(cfg Config, w io.Writer, csvDir string, only ...string) error {
	want := map[string]bool{}
	for _, id := range only {
		want[id] = true
	}
	for _, e := range Suite() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(w, "==== %s (%.1fs wall) ====\n%s\n", e.ID, time.Since(start).Seconds(), res.Render()); err != nil {
			return err
		}
		if csvDir != "" {
			if err := exportToFile(res, filepath.Join(csvDir, e.ID+".csv")); err != nil {
				return fmt.Errorf("experiments: csv for %s: %w", e.ID, err)
			}
		}
	}
	return nil
}

func exportToFile(res Renderable, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ExportCSV(res, f)
}
