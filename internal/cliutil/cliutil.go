// Package cliutil holds the flag helpers shared by the adaptmr command
// line tools: metrics snapshot output with an explicit format selector
// (json, csv or Prometheus text exposition), pprof self-profiling, the
// evaluation-pool worker count, structured diagnostic logging (-log), and
// the daemon flag bundle (-addr, -request-timeout, -queue-depth).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"adaptmr/internal/obs"
)

// LogFlag is the shared -log diagnostic-logging selector. Its value is
// "format" or "format:level" — format one of text, json; level one of
// debug, info, warn, error (default info). Diagnostics always go to
// stderr so result output on stdout stays machine-parseable.
type LogFlag struct {
	spec string
}

// BindLogFlag registers the shared -log flag on the given flag set.
func BindLogFlag(fs *flag.FlagSet) *LogFlag {
	l := &LogFlag{}
	fs.StringVar(&l.spec, "log", "text",
		"diagnostic log output: format[:level], format = text|json, level = debug|info|warn|error")
	return l
}

// Logger builds the *slog.Logger described by the parsed flag, writing to
// stderr. An unknown format or level is an error so typos fail fast
// instead of silently logging in an unexpected shape.
func (l *LogFlag) Logger() (*slog.Logger, error) {
	return NewLogger(os.Stderr, l.spec)
}

// NewLogger builds a structured logger from a "format[:level]" spec. It
// backs LogFlag and is exported separately so tests (and embedders) can
// direct output at any writer.
func NewLogger(w io.Writer, spec string) (*slog.Logger, error) {
	format, levelName, _ := strings.Cut(spec, ":")
	level := slog.LevelInfo
	switch strings.ToLower(levelName) {
	case "", "info":
	case "debug":
		level = slog.LevelDebug
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("cliutil: unknown log level %q (want debug, info, warn or error)", levelName)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("cliutil: unknown log format %q (want text or json)", format)
	}
}

// MetricsOut binds the shared -metrics / -metrics-format flag pair. The
// explicit format wins over the path extension; "auto" (the default)
// keeps the historical behaviour of .csv → CSV, .prom → Prometheus text
// exposition, everything else → JSON.
type MetricsOut struct {
	Path   string
	Format string
}

// BindMetricsFlags registers -metrics and -metrics-format on the given
// flag set (use flag.CommandLine for the default set).
func BindMetricsFlags(fs *flag.FlagSet) *MetricsOut {
	m := &MetricsOut{}
	fs.StringVar(&m.Path, "metrics", "", "write a metrics snapshot to this path")
	fs.StringVar(&m.Format, "metrics-format", "auto",
		"metrics snapshot format: json, csv, prom, or auto (by extension)")
	return m
}

// Enabled reports whether a metrics path was requested.
func (m *MetricsOut) Enabled() bool { return m.Path != "" }

// ResolveFormat returns the effective snapshot format: the explicit
// -metrics-format when given, otherwise by extension (.csv → csv,
// .prom → prom, anything else → json).
func (m *MetricsOut) ResolveFormat() string {
	format := strings.ToLower(m.Format)
	if format == "auto" || format == "" {
		switch strings.ToLower(filepath.Ext(m.Path)) {
		case ".csv":
			return "csv"
		case ".prom":
			return "prom"
		default:
			return "json"
		}
	}
	return format
}

// Write stores the snapshot at the configured path in the configured
// format.
func (m *MetricsOut) Write(s *obs.Snapshot) error {
	f, err := os.Create(m.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch m.ResolveFormat() {
	case "json":
		err = s.WriteJSON(f)
	case "csv":
		err = s.WriteCSV(f)
	case "prom", "prometheus":
		err = s.WritePrometheus(f)
	default:
		err = fmt.Errorf("cliutil: unknown metrics format %q (want json, csv, prom or auto)", m.Format)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// BindParallelFlag registers the shared -parallel flag: the worker count
// for independent simulation evaluations. 0 (the default) means
// GOMAXPROCS; 1 forces serial execution. Outputs are byte-identical at
// every setting.
func BindParallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0,
		"evaluation worker count (0 = GOMAXPROCS, 1 = serial); output is identical at every setting")
}

// BindCheckFlag registers the shared -check flag: attach the runtime
// invariant checker (internal/check) to every simulated block queue and
// fail the run if any lifecycle, conservation or starvation-bound
// invariant is violated.
func BindCheckFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("check", false,
		"attach runtime invariant checks to every block queue (a violation fails the run)")
}

// ServerFlags is the shared flag bundle for daemon-style commands
// (cmd/adaptd): listen address, per-request deadline and admission-queue
// depth.
type ServerFlags struct {
	// Addr is the host:port (or :port) the HTTP server listens on.
	Addr string
	// RequestTimeout is the default — and maximum — per-request
	// deadline; requests may ask for less via their payload.
	RequestTimeout time.Duration
	// QueueDepth is the bounded admission queue's capacity; a full queue
	// answers 429 with Retry-After.
	QueueDepth int
}

// BindServerFlags registers -addr, -request-timeout and -queue-depth on
// the given flag set. Call Validate after parsing.
func BindServerFlags(fs *flag.FlagSet) *ServerFlags {
	s := &ServerFlags{}
	fs.StringVar(&s.Addr, "addr", "127.0.0.1:7070", "HTTP listen address (host:port or :port)")
	fs.DurationVar(&s.RequestTimeout, "request-timeout", 60*time.Second,
		"default and maximum per-request deadline")
	fs.IntVar(&s.QueueDepth, "queue-depth", 64,
		"bounded admission queue capacity (full queue answers 429 + Retry-After)")
	return s
}

// Validate checks the parsed server flags: the address must be a
// splittable host:port with a non-empty port, the timeout positive, the
// queue depth at least 1.
func (s *ServerFlags) Validate() error {
	if s.Addr == "" {
		return fmt.Errorf("cliutil: -addr must not be empty")
	}
	host, port, err := net.SplitHostPort(s.Addr)
	if err != nil {
		return fmt.Errorf("cliutil: -addr %q: %w", s.Addr, err)
	}
	_ = host // empty host (":7070") means all interfaces — allowed
	if port == "" {
		return fmt.Errorf("cliutil: -addr %q: missing port", s.Addr)
	}
	if s.RequestTimeout <= 0 {
		return fmt.Errorf("cliutil: -request-timeout must be positive, got %v", s.RequestTimeout)
	}
	if s.QueueDepth < 1 {
		return fmt.Errorf("cliutil: -queue-depth must be at least 1, got %d", s.QueueDepth)
	}
	return nil
}

// Profiler binds -cpuprofile / -memprofile self-profiling flags.
type Profiler struct {
	cpuPath string
	memPath string
	cpu     *os.File
}

// BindProfileFlags registers -cpuprofile and -memprofile on the given
// flag set (use flag.CommandLine for the default set).
func BindProfileFlags(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a pprof CPU profile to this path")
	fs.StringVar(&p.memPath, "memprofile", "", "write a pprof heap profile to this path at exit")
	return p
}

// Start begins CPU profiling when requested. Call Stop before exiting.
func (p *Profiler) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile when requested.
func (p *Profiler) Stop() error {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			return err
		}
		p.cpu = nil
	}
	if p.memPath == "" {
		return nil
	}
	f, err := os.Create(p.memPath)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialise up-to-date allocation stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}
